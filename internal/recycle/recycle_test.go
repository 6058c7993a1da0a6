package recycle

import "testing"

func TestMapEmptiesOrMakes(t *testing.T) {
	var nilMap map[string]int
	if m := Map(nilMap, 4); m == nil || len(m) != 0 {
		t.Fatalf("Map(nil) = %v, want an empty map", m)
	}
	m := map[string]int{"a": 1}
	if got := Map(m, 0); len(got) != 0 {
		t.Fatalf("Map left %v", got)
	}
	m["b"] = 2 // the same map: Map emptied it in place
	if len(m) != 1 {
		t.Fatalf("Map did not return the map it was given")
	}
}

func TestSliceZeroesWhatItDrops(t *testing.T) {
	x := 1
	s := []*int{&x, &x}
	got := Slice(s)
	if len(got) != 0 || cap(got) != 2 {
		t.Fatalf("Slice = len %d cap %d, want 0 and 2", len(got), cap(got))
	}
	if s[0] != nil || s[1] != nil {
		t.Fatalf("Slice left its old elements alive: %v", s)
	}
}

func TestLenKeepsElements(t *testing.T) {
	s := make([]int, 3, 4)
	s[0], s[1], s[2] = 1, 2, 3
	short := Len(s, 2)
	if len(short) != 2 || short[1] != 2 {
		t.Fatalf("Len(s, 2) = %v", short)
	}
	if back := Len(short, 3); back[2] != 3 {
		t.Fatalf("Len dropped an element within capacity: %v", back)
	}
	long := Len(s, 6)
	if len(long) != 6 || long[0] != 1 || long[2] != 3 || long[3] != 0 || long[5] != 0 {
		t.Fatalf("Len(s, 6) = %v, want the three elements then zeros", long)
	}
	if got := Len([]int(nil), 0); got != nil {
		t.Fatalf("Len(nil, 0) = %v, want nil", got)
	}
}
