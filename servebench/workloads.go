package main

import (
	"fmt"
	"hash/fnv"
	"strings"
	"sync"

	"repro/internal/datasets"
	"repro/internal/kb"
	"repro/internal/pair"
	"repro/internal/server"
	"repro/internal/session"
)

// workload is one traffic mix: which sessions the clients create, in
// which order, against which server configuration.
type workload struct {
	name string
	// quality is the number of plan entries every run completes, however
	// short --seconds is. crowd_questions and f1 are taken over exactly
	// these sessions, so they repeat bit for bit for a seed. It is set so
	// the quality sessions take at least --seconds at full size: a run
	// then does the same sessions on a faster or slower machine, and
	// measures long enough that machine-speed drift of a few seconds
	// averages out.
	quality int
	// tail is the upper percentile turnaround_ms.tail reports. It is fixed
	// per workload so the metric means the same thing in every run, and
	// chosen so at least ten samples lie beyond it at full size.
	tail float64
	// disk selects the fsync-per-answer disk store (memory otherwise).
	disk bool
	// workers is the number of in-process cluster workers (0 = local).
	workers int
	// workerError is the chance a simulated worker's label is flipped.
	workerError float64
	// entry returns plan entry i for the run's seed.
	entry func(seed int64, i int) entry
}

// entry is one planned session: the generated dataset it uploads and
// the options it asks for.
type entry struct {
	dataset string
	dsSeed  int64
	opts    server.OptionsDTO
}

func (e entry) key() string { return fmt.Sprintf("%s/%d/%+v", e.dataset, e.dsSeed, e.opts) }

// onboardCycle is the dataset order of the onboard workload.
var onboardCycle = []string{"books", "iimb", "d-a", "i-y", "d-y"}

// freshSeed derives a distinct dataset seed for plan entry i.
func freshSeed(seed int64, i int) int64 { return seed*100003 + int64(i) + 1 }

// workloads builds the workload table; scale sets the size of the
// scale-<n> datasets (5000, and 10000 and 20000 for the workloads that
// need more loops, at full size; smaller in tests).
func workloads(scale int) []*workload {
	big, mid := 4*scale, scale
	return []*workload{
		// Requester onboarding: back-to-back small sessions on fresh data,
		// each with a trial budget of 50 questions, so the loop runs 1-5
		// times. The pre-pipeline, the session-finishing forest and
		// deduction dominate. Without the budget a few i-y and d-y seeds
		// ask 100-140 questions, and how many of those a seed draws would
		// move every per-request percentile of the mix.
		{
			name:    "onboard",
			quality: 200,
			tail:    0.90,
			entry: func(seed int64, i int) entry {
				return entry{dataset: onboardCycle[i%len(onboardCycle)], dsSeed: freshSeed(seed, i), opts: server.OptionsDTO{Deduce: true, Budget: 50}}
			},
		},
		// One large session per client: ~770 loops each, so infer, select,
		// apply and reestimate dominate.
		{
			name:    "long-loop",
			quality: 2,
			tail:    0.99,
			entry: func(seed int64, i int) entry {
				return entry{dataset: fmt.Sprintf("scale-%d", big), dsSeed: freshSeed(seed, i)}
			},
		},
		// Every session resolves one namespace on the fsync-per-answer disk
		// store under a noisy crowd: the first pair shares through
		// reservations, later ones replay the answer cache, and every
		// applied answer is journaled. Only the first pair posts crowd
		// answers, so the namespace is scale-20000 at µ=20: that pair then
		// answers for several seconds rather than one short burst, and
		// gives the turnaround p90 hundreds of samples. Six sessions make
		// the four replays the majority, so the session medians are
		// replay times.
		{
			name:        "durable-shared",
			quality:     6,
			tail:        0.90,
			disk:        true,
			workerError: 0.1,
			entry: func(seed int64, _ int) entry {
				return entry{dataset: fmt.Sprintf("scale-%d", big), dsSeed: freshSeed(seed, 0), opts: server.OptionsDTO{Mu: 20}}
			},
		},
		// long-loop's shape with shard engines on two in-process cluster
		// workers over loopback TCP: the only workload that loads the RPC
		// layer.
		{
			name:    "cluster-rpc",
			quality: 4,
			tail:    0.90,
			workers: 2,
			entry: func(seed int64, i int) entry {
				return entry{dataset: fmt.Sprintf("scale-%d", mid), dsSeed: freshSeed(seed, i)}
			},
		},
	}
}

func findWorkload(name string, scale int) (*workload, error) {
	var names []string
	for _, w := range workloads(scale) {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// input is a generated dataset in the form the server receives it: two
// TSV KBs and a gold standard by entity name. k1, k2 and gold are the
// same TSV parsed back the way the server parses it, so entity IDs (and
// with them question IDs) agree with the server's; the simulated crowd
// and the oracle read them.
type input struct {
	key      string
	e        entry
	kb1, kb2 string
	goldTSV  [][2]string
	k1, k2   *kb.KB
	gold     *pair.Gold
}

func generate(e entry) (*input, error) {
	ds, err := datasets.ByName(e.dataset, e.dsSeed)
	if err != nil {
		return nil, err
	}
	var b1, b2 strings.Builder
	if err := ds.K1.WriteTSV(&b1); err != nil {
		return nil, err
	}
	if err := ds.K2.WriteTSV(&b2); err != nil {
		return nil, err
	}
	in := &input{key: e.key(), e: e, kb1: b1.String(), kb2: b2.String()}
	if in.k1, err = kb.ReadTSV(strings.NewReader(in.kb1)); err != nil {
		return nil, err
	}
	if in.k2, err = kb.ReadTSV(strings.NewReader(in.kb2)); err != nil {
		return nil, err
	}
	var matches []pair.Pair
	for _, m := range ds.Gold.Matches() {
		n1, n2 := ds.K1.EntityName(m.U1), ds.K2.EntityName(m.U2)
		in.goldTSV = append(in.goldTSV, [2]string{n1, n2})
		matches = append(matches, pair.Pair{U1: in.k1.Entity(n1), U2: in.k2.Entity(n2)})
	}
	in.gold = pair.NewGold(matches)
	return in, nil
}

// inputs holds the inputs generated before timing (each client's
// first), so their memory is the same in every run. Other entries
// are generated by the client that takes them and dropped with the
// session; the oracle generates them again.
type inputs struct {
	mu sync.Mutex
	m  map[string]*input
}

// get returns e's input, generating it unless it is held.
func (c *inputs) get(e entry) (*input, error) {
	c.mu.Lock()
	in, ok := c.m[e.key()]
	c.mu.Unlock()
	if ok {
		return in, nil
	}
	in, err := generate(e)
	if err != nil {
		return nil, fmt.Errorf("generating %s seed %d: %w", e.dataset, e.dsSeed, err)
	}
	return in, nil
}

// hold generates e's input and keeps it for the invocation.
func (c *inputs) hold(e entry) error {
	in, err := c.get(e)
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.m[in.key] = in
	c.mu.Unlock()
	return nil
}

// crowd is the simulated crowd: three workers of quality 0.95 whose
// labels are a pure function of the pair's truth and a seeded hash, so a
// pair gets the same labels whichever session asks it and in whatever
// order. That is what makes the oracle comparison exact.
type crowd struct {
	seed    int64
	errRate float64
}

func (c crowd) labels(p pair.Pair, truth bool) []session.Label {
	out := make([]session.Label, 3)
	for w := range out {
		h := fnv.New64a()
		fmt.Fprintf(h, "%d|%d|%d|%d", c.seed, p.U1, p.U2, w)
		ans := truth
		if float64(h.Sum64()%1e9)/1e9 < c.errRate {
			ans = !truth
		}
		out[w] = session.Label{WorkerID: w, Quality: 0.95, IsMatch: ans}
	}
	return out
}
