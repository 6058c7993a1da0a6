package lint

import (
	"bufio"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// removedNames is what earlier changes deleted and must not grow back: a
// pattern that may match no line of any Go file in the checkout (bench/,
// a module of its own, included), with the PR that removed it. under
// narrows an entry to one subtree; except lists subtrees it does not
// cover. This file is the list, so it is never scanned.
var removedNames = []struct {
	pattern string
	pr      int
	why     string
	under   string
	except  []string
}{
	{
		pattern: `rand\.NewSource`,
		pr:      13,
		why:     "one seeded stream type, internal/xrand; bench/ shuffles its trial order, the lint fixture spells the constructor on purpose",
		except:  []string{"bench/", "internal/xrand/", "internal/lint/testdata/"},
	},
	{
		pattern: `NewReal|RealClock|ResetShared|\.\(\*vclock\.Virtual\)`,
		pr:      23,
		why:     "one clock type: *vclock.Virtual, no wall-clock fork and no assertion to reach it",
	},
	{
		pattern: `ShardedTarget|shardedTarget|ShardKeyFunc|"pb-submit"|"pb-result"`,
		pr:      24,
		why:     "one fault surface (a plan applies to a list of clusters) and one client (core.Client)",
	},
	{
		pattern: `replayEarlier|SetApply|SetPossibleReply|DelayPareto|DelayAsymmetric|MinDelay|FaultSchedule|BeginUndoable`,
		pr:      28,
		why:     "no replica-local state to replay, one delay draw, one fault language, one undoable opener",
	},
	{
		pattern: `drainSpinBudget|DropLink|ShardAt\(|ShardsAt\(`,
		pr:      29,
		why:     "Plan.OnShard addresses a group, a singleton-pair Partition cuts a link, simnet.Reset refuses instead of draining",
	},
	{
		pattern: `Stagger\(|streamSeed|per-sender`,
		pr:      30,
		why:     "one delay stream per network and no phase offsets: the clock runs one goroutine at a time",
	},
	{
		pattern: `\bgid\(|callerPC|pumpDetached|\bgent\b`,
		pr:      32,
		why:     "attachment is per call: no goroutine identity, no ledger entry, no detach hand-off",
	},
	{
		pattern: `\bledger\b`,
		pr:      32,
		why:     "the clock keeps no per-goroutine attachment ledger",
		under:   "internal/vclock/",
	},
	{
		pattern: `\.(Enter|Exit)\(\)`,
		pr:      32,
		why:     "no caller holds the clock: Enter and Exit are no-ops kept for bench/'s probes until the next benchmark change",
		except:  []string{"bench/"},
	},
	{
		pattern: `mainLoop|clk\.Go\(s\.batcher\)|clk\.Go\(s\.follower\)|clk\.Go\(st\.receive\)`,
		pr:      34,
		why:     "the server's request loop, the station's receiver, the batcher and the follower are Runners on the pump, not goroutines that wait",
		under:   "internal/core/",
	},
	{
		pattern: `stepsRule18and20|stepsRule19`,
		pr:      36,
		why:     "rule instances are ⊨ matches plus side conditions: there is one transcription of Figure 4",
		under:   "internal/reduce/",
	},
	{
		pattern: `(rounds|inflight)\s+map\[consensus\.Key\]`,
		pr:      37,
		why:     "a request's round guards are two bitsets on its record, the slot plane's are keyed by slot index",
		under:   "internal/core/",
	},
	{
		pattern: `"\\x00" \+`,
		pr:      37,
		why:     "effect tables are keyed by an (action, input) struct, not a concatenated string",
		under:   "internal/env/",
	},
	{
		pattern: `Payload\.\(ctMsg\)|sort\.Slice`,
		pr:      38,
		why:     "CT messages travel as slots of the sender's slab, and key order is one Key compare",
		under:   "internal/consensus/",
	},
	{
		pattern: `verify\.Check\(`,
		pr:      39,
		why:     "execute checks every group on its sweep worker's reused verify.Checker",
		under:   "internal/scenario/",
	},
	{
		pattern: `verify\.Check\(`,
		pr:      39,
		why:     "a sharded report checks its groups on one verify.Checker",
		under:   "internal/shard/",
	},
	{
		pattern: `p\.events = append\(`,
		pr:      39,
		why:     "a projection is a range of one buffer, laid out by request after the walk",
		under:   "internal/reduce/",
	},
}

// TestRemovedNamesStayGone fails when a removed name reappears in Go
// source, naming the file, the line and the change that removed it.
func TestRemovedNamesStayGone(t *testing.T) {
	root, _, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	res := make([]*regexp.Regexp, len(removedNames))
	for i, r := range removedNames {
		res[i] = regexp.MustCompile(r.pattern)
	}
	self := filepath.ToSlash(filepath.Join("internal", "lint", "removed_test.go"))
	scanned := 0
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if strings.HasPrefix(d.Name(), ".") && rel != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || rel == self {
			return nil
		}
		scanned++
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		sc.Buffer(nil, 1<<20)
		for n := 1; sc.Scan(); n++ {
			for i, r := range removedNames {
				if !covers(rel, r.under, r.except) || !res[i].MatchString(sc.Text()) {
					continue
				}
				t.Errorf("%s:%d: %q matches %s, removed in PR %d (%s)", rel, n, strings.TrimSpace(sc.Text()), r.pattern, r.pr, r.why)
			}
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	if scanned == 0 {
		t.Fatal("scanned no Go file: the walk is broken")
	}
}

// covers reports whether an entry scoped to under (all of the tree when
// empty), minus the except subtrees, applies to the file at rel.
func covers(rel, under string, except []string) bool {
	if !strings.HasPrefix(rel, under) {
		return false
	}
	for _, e := range except {
		if strings.HasPrefix(rel, e) {
			return false
		}
	}
	return true
}
