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
	{
		pattern: `resumeOwnRound`,
		pr:      41,
		why:     "a decided round reaches the client only through cleanRound",
	},
	{
		pattern: `awaitFixed|type watcher\b|\*watcher\b|watcher\{`,
		pr:      43,
		why:     "an owed client is answered from the cleaner's pass, only from a live owner's round",
	},
	{
		pattern: `slotFollower|advanceSlot`,
		pr:      44,
		why:     "a committed slot is applied from the cleaner's pass, only from a live owner's round",
	},
	{
		pattern: `lastRequestOwner|lastDecided|roundObjectsAt|slotRounds|claimSlotRound|releaseSlotRound`,
		pr:      45,
		why:     "requests and slots share one round log: one guard, one ownership race, one owner scan, one cleaning claim",
		under:   "internal/core/",
	},
	{
		pattern: `ErrSharded|EntryRef|outside the record/replay plane`,
		pr:      46,
		why:     "schedule entries carry their group, so a sharded run records, replays and shrinks on the one path, in schedule.Entry's one JSON form",
	},
	{
		pattern: `MaxStormFactor|MajorityCrashes|\bTotalLoss\b|\bsc\.Net\b|Scenario\.Net\b`,
		pr:      47,
		why:     "a scenario holds only what a run depends on: one Outage level, a constant storm bound and delay bound, and RunOptions arms the networks",
	},
	{
		pattern: `runScratch\.take|runScratch\) take\(|scratch\.clock\(|\bNetworks:|cfg\.Network( =|$)|cfg\.Networks\b`,
		pr:      49,
		why:     "a deployment owns its clock and networks: its Reset rewinds the one and resets the others, and only shard.Cluster.Reset derives a group's network",
	},
	{
		pattern: `\bRegisterShrinker\b|\bShrinkFailing\b|\bShrinkBudget\b|\bCounterexamples?\b`,
		pr:      49,
		why:     "scenario names no shrinker: shrink.Seeds shrinks a sweep's failing seeds, and a trace renders from its MinTrace",
	},
	{
		pattern: `\bcountTargets\b|\btargetKey\b|\bexpectedCount\b|\.(toward|expected|norm)\b`,
		pr:      50,
		why:     "the checker's target lives on its groups (load counts each group's want from the specs), and xableTo matches the normal form in place",
		under:   "internal/reduce/",
	},
	{
		pattern: `\bgrpIDs\b|\bgrpKey\b`,
		pr:      52,
		why:     "load files groups in a pointer-free open-addressed table sized to the history (sweep.slots), not a map it clears at the cost of its capacity",
		under:   "internal/reduce/",
	},
	// A world has one runner: only the clock's running unit, or a caller
	// attached between its waits, touches a world's objects, so they take
	// no lock. consensus.Local keeps its own: raw goroutines may propose on
	// the paper's shared-memory object.
	{pattern: oneRunner, pr: 53, why: oneRunnerWhy, under: "internal/simnet/"},
	{pattern: oneRunner, pr: 53, why: oneRunnerWhy, under: "internal/fd/"},
	{pattern: oneRunner, pr: 53, why: oneRunnerWhy, under: "internal/consensus/",
		except: []string{"internal/consensus/local.go", "internal/consensus/consensus_test.go"}},
	{pattern: oneRunner, pr: 53, why: oneRunnerWhy, under: "internal/core/"},
	{pattern: oneRunner, pr: 53, why: oneRunnerWhy, under: "internal/wal/"},
	{pattern: oneRunner, pr: 53, why: oneRunnerWhy, under: "internal/shard/"},
	{pattern: oneRunner, pr: 53, why: oneRunnerWhy, under: "internal/baseline/"},
}

const (
	oneRunner    = `sync\.(RW)?Mutex|sync\.Locker`
	oneRunnerWhy = "a world has one runner (vclock): its objects take no lock and their conds pass a nil locker"
)

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
