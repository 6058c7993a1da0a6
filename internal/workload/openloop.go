package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"xability/internal/action"
	"xability/internal/xrand"
)

// ArrivalKind selects the interarrival process of an open-loop workload.
type ArrivalKind int

const (
	// Poisson draws exponential interarrival times with mean 1/Rate.
	Poisson ArrivalKind = iota
	// Fixed spaces arrivals exactly 1/Rate apart.
	Fixed
)

// OpenLoopSpec describes an open-loop workload: a population of simulated
// clients submitting requests at a target arrival rate, independent of
// service completions — the load shape that exposes a saturation point.
// All generation happens up front on the virtual clock's timeline, so a
// (spec, seed) pair always produces the same arrival schedule.
type OpenLoopSpec struct {
	// Clients is the simulated client population (identity space for
	// request IDs; default 10_000). Arrivals are assigned to clients
	// uniformly at random — each request is its own single-request
	// session, so the population size shapes identity, not rate.
	Clients int
	// Rate is the offered load in arrivals per virtual second.
	Rate float64
	// Duration is the arrival horizon: requests arrive in [0, Duration).
	Duration time.Duration
	// Arrival selects the interarrival process.
	Arrival ArrivalKind
	// Accounts is the key space size (default 4).
	Accounts int
	// ZipfS, when > 1, skews key popularity with a Zipf(s) distribution —
	// the hot-key shape sharded runs care about. 0 keeps keys uniform.
	ZipfS float64
}

// Arrival is one scheduled open-loop request.
type Arrival struct {
	// At is the arrival instant on the virtual clock.
	At time.Duration
	// Client is the submitting client's index in [0, Clients).
	Client int
	// Req is the request, already tagged with a unique ID
	// ("ol<client>#<n>", disjoint from closed-loop IDs and slot IDs).
	Req action.Request
}

func (s OpenLoopSpec) withDefaults() OpenLoopSpec {
	if s.Clients <= 0 {
		s.Clients = 10_000
	}
	if s.Rate <= 0 {
		s.Rate = 10_000
	}
	if s.Duration <= 0 {
		s.Duration = 10 * time.Millisecond
	}
	if s.Accounts <= 0 {
		s.Accounts = 4
	}
	return s
}

// GenerateOpenLoop produces the deterministic arrival schedule for a spec:
// arrival instants from the interarrival process, keys from the uniform or
// Zipf popularity law, actions from DefaultMix, in nondecreasing time order.
func GenerateOpenLoop(spec OpenLoopSpec, seed int64) []Arrival {
	spec = spec.withDefaults()
	rng := xrand.New(seed)
	var zipf *rand.Zipf
	if spec.ZipfS > 1 {
		zipf = rand.NewZipf(rng, spec.ZipfS, 1, uint64(spec.Accounts-1))
	}
	mean := float64(time.Second) / spec.Rate // ns between arrivals
	mix := DefaultMix
	total := mix.Reads + mix.Tokens + mix.Debits

	var out []Arrival
	t := 0.0
	for n := 0; ; n++ {
		switch spec.Arrival {
		case Fixed:
			t += mean
		default:
			t += rng.ExpFloat64() * mean
		}
		at := time.Duration(math.Round(t))
		if at >= spec.Duration {
			break
		}
		var acct int
		if zipf != nil {
			acct = int(zipf.Uint64())
		} else {
			acct = rng.Intn(spec.Accounts)
		}
		client := rng.Intn(spec.Clients)
		input := action.Value(fmt.Sprintf("acct-%d", acct))
		var req action.Request
		pick := rng.Intn(total)
		switch {
		case pick < mix.Reads:
			req = action.NewRequest("read", input)
		case pick < mix.Reads+mix.Tokens:
			req = action.NewRequest("token", input)
		default:
			req = action.NewRequest("debit", input)
		}
		out = append(out, Arrival{
			At:     at,
			Client: client,
			Req:    req.WithID(fmt.Sprintf("ol%d#%d", client, n)),
		})
	}
	return out
}

// LatencySummary condenses a latency sample into the percentiles T11
// reports.
type LatencySummary struct {
	Count         int
	P50, P95, P99 time.Duration
	Max           time.Duration
	MeanMicros    float64
}

// SummarizeLatencies computes the summary (the sample is not modified).
func SummarizeLatencies(sample []time.Duration) LatencySummary {
	if len(sample) == 0 {
		return LatencySummary{}
	}
	s := append([]time.Duration(nil), sample...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pct := func(p float64) time.Duration {
		i := int(math.Ceil(p*float64(len(s)))) - 1
		if i < 0 {
			i = 0
		}
		return s[i]
	}
	var sum time.Duration
	for _, d := range s {
		sum += d
	}
	return LatencySummary{
		Count:      len(s),
		P50:        pct(0.50),
		P95:        pct(0.95),
		P99:        pct(0.99),
		Max:        s[len(s)-1],
		MeanMicros: float64(sum.Microseconds()) / float64(len(s)),
	}
}
