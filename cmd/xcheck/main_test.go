package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden outputs under testdata")

// TestMain runs the test binary as xcheck itself when asked to, so the
// tests below drive the command as a user does: flags, output and exit
// status.
func TestMain(m *testing.M) {
	if os.Getenv("XCHECK_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestOutputPinned pins what xcheck prints on the sample histories under
// testdata — the verdict, the signature, the normal form and every step of
// the reduction trace — byte for byte, and its exit status. Between them
// the samples take rule 18 (a duplicate pair and a dangling start), rule 19
// (a cancelled attempt), rule 20 (a duplicate commit) and the Λ form
// (compaction across junk). A change to the checker that means to keep its
// rewrites leaves every golden as it is; -update rewrites them.
func TestOutputPinned(t *testing.T) {
	for _, c := range []struct {
		golden string
		args   []string
		exit   int
	}{
		{"retried_read_trace", []string{"-idempotent", "read", "-action", "read", "-input", "k", "-trace", "-signature", "retried_read.txt"}, 0},
		{"retried_read_other", []string{"-idempotent", "read", "-action", "read", "-input", "j", "-signature", "retried_read.txt"}, 1},
		{"interleaved_normalize", []string{"-idempotent", "read,write", "-normalize", "-trace", "interleaved.txt"}, 0},
		{"cancelled_debit_trace", []string{"-undoable", "debit", "-action", "debit", "-input", "a", "-trace", "-signature", "cancelled_debit.txt"}, 0},
		{"cancelled_debit_normalize", []string{"-undoable", "debit", "-normalize", "cancelled_debit.txt"}, 0},
	} {
		t.Run(c.golden, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], c.args...)
			cmd.Dir = "testdata"
			cmd.Env = append(os.Environ(), "XCHECK_RUN_MAIN=1")
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			exit := 0
			var ee *exec.ExitError
			if errors.As(err, &ee) {
				exit = ee.ExitCode()
			} else if err != nil {
				t.Fatal(err)
			}
			if exit != c.exit {
				t.Errorf("exit status %d, want %d (stderr %q)", exit, c.exit, stderr.String())
			}
			path := filepath.Join("testdata", c.golden+".golden")
			if *update {
				if err := os.WriteFile(path, out, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out, want) {
				t.Errorf("xcheck %v prints\n%s\nwant (%s)\n%s", c.args, out, path, want)
			}
		})
	}
}
