package core

import (
	"repro/internal/consistency"
	"repro/internal/ergraph"
	"repro/internal/pair"
	"repro/internal/propagation"
	"repro/internal/selection"
)

// ShardRunner abstracts where a Loop's per-shard propagation engines live.
// The loop owns every global decision — answer application order, the
// result sets, budget, question selection, settling — and drives the
// runner with per-shard operations; the runner holds one ShardState per
// shard — the shard's probabilistic graph, its engine and the per-shard
// state those operations read (resolved/hard vertex mirrors, the
// detached set). The in-process runner (NewLocalRunner, the default)
// holds the states in the loop's own process; internal/cluster's remote
// runner places them on worker processes behind an RPC protocol and
// replays the operation log to survive worker crashes. Neither writes to
// the Prepared.
//
// Operations on distinct shards may be invoked concurrently (the loop fans
// gathers and rebuilds across its scheduler); operations on one
// shard are always serialized by the loop. A conforming runner must
// replicate the local runner's observable behavior exactly — every
// byte-identity guarantee the loop makes extends to any runner that does.
type ShardRunner interface {
	// Resolve marks shard s's vertex q resolved; detach additionally
	// removes q's edges from the propagation fabric (the non-match path).
	// Resolving an already resolved vertex is idempotent.
	Resolve(s int, q pair.Pair, detach bool) error
	// MarkHard marks q a hard question: candidate gathering skips it from
	// now on.
	MarkHard(s int, q pair.Pair) error
	// Gather syncs shard s's engine and assembles its candidate questions,
	// with inferred sets as global vertex indexes. The boolean reports
	// whether some candidate can still infer a pair other than itself.
	Gather(s int) ([]selection.Candidate, bool, error)
	// Ball returns the vertices a confirmed match at q would infer — q's
	// bounded-distance ball as of the last engine sync — in propagation
	// order (ascending distance, ties by pair order), unfiltered by
	// resolution state; the loop applies its own 1:1-constraint cascade.
	Ball(s int, q pair.Pair) ([]pair.Pair, error)
	// Rebuild rebuilds shard s's probabilistic graph from the given
	// consistency estimates, re-detaching every detached vertex, and
	// resets the engine over it (the re-estimation path).
	Rebuild(s int, est map[ergraph.RelPair]consistency.Estimate) error
	// Invalidate degrades shard s's engine to a full recompute at its next
	// sync (the debugFullResync test hook).
	Invalidate(s int) error
	// Release drops shard s's engine — the shard settled. It is best
	// effort and idempotent: the loop never addresses s again.
	Release(s int)
	// Close releases every remaining engine. The runner is unusable
	// afterwards.
	Close()
}

// RunnerFactory builds the ShardRunner a new Loop will drive over the
// given prepared pipeline.
type RunnerFactory func(p *Prepared) (ShardRunner, error)

// runnerFactory resolves the configured factory, defaulting to the
// in-process runner.
func (c *Config) runnerFactory() RunnerFactory {
	if c.Runner != nil {
		return c.Runner
	}
	return NewLocalRunner
}

// ShardState is one shard's live engine state: the shard's probabilistic
// graph and the incremental propagation engine over it, plus the mirrors
// of the loop's resolution state that candidate gathering and rebuilds
// read (resolved, hard and detached vertices). It is the only owner of a
// probabilistic graph, and the execution substrate both ShardRunner
// implementations share — the local runner holds one per shard in
// process, and a cluster worker holds one per assigned shard, fed the
// same operations over RPC — so both compute bit-identical candidates,
// balls and rebuilds by construction.
//
// A ShardState is not safe for concurrent use; the loop serializes
// operations per shard, and workers add their own locking.
type ShardState struct {
	p    *Prepared
	pipe *shardPipe
	eng  *propagation.Engine

	resolved pair.Set
	detached pair.Set
	hard     pair.Set
}

// NewShardState builds shard s's engine state over a fresh probabilistic
// graph from the initial consistency fit, leaving the Prepared untouched,
// so one Prepared can back any number of loops and sessions.
func (p *Prepared) NewShardState(s int) *ShardState {
	st := &ShardState{
		p:        p,
		pipe:     p.pipes[s],
		resolved: pair.Set{},
		detached: pair.Set{},
		hard:     pair.Set{},
	}
	st.eng = propagation.NewEngineObs(st.buildProb(p.Consistency), p.Cfg.Tau, p.Cfg.Obs.EngineCounters())
	return st
}

// buildProb runs neighbor propagation over the shard's subgraph under the
// given consistency estimates.
func (st *ShardState) buildProb(est map[ergraph.RelPair]consistency.Estimate) *propagation.ProbGraph {
	return propagation.BuildProb(st.pipe.graph, st.p.K1, st.p.K2, propagation.Params{
		Priors:      st.p.Priors,
		Consistency: est,
	})
}

// ShardLabels returns the edge labels present in shard s — the estimates a
// rebuild of the shard consumes (the remote runner ships only these).
func (p *Prepared) ShardLabels(s int) []ergraph.RelPair { return p.pipes[s].labels }

// Resolve marks q resolved; detach removes its edges from the propagation
// fabric. No-op after Release.
func (st *ShardState) Resolve(q pair.Pair, detach bool) {
	if st.eng == nil {
		return
	}
	st.resolved.Add(q)
	if detach {
		st.detached.Add(q)
		st.eng.DetachVertex(q)
	}
}

// MarkHard marks q a hard question; gathers skip it.
func (st *ShardState) MarkHard(q pair.Pair) {
	if st.eng == nil {
		return
	}
	st.hard.Add(q)
}

// Sync recomputes the engine's dirty balls without assembling candidates.
// It is the replayable form of the sync a Gather performs: a cluster
// worker replaying a reassigned shard's operation log executes Sync at
// every logged gather position, so the engine's last-sync snapshot — the
// one Ball serves — reproduces bit-identically.
func (st *ShardState) Sync() {
	if st.eng != nil {
		st.eng.Sync()
	}
}

// Gather syncs the engine and assembles the candidate question list over
// the shard's unresolved, non-hard vertices, with inferred sets as global
// vertex indexes. The boolean reports whether some question can still
// infer a pair other than itself — the loop's stop signal. The engine's
// balls are already ascending in vertex index, so the inferred lists come
// out in the deterministic order the benefit sums need (they are
// order-sensitive in floating point) without any per-loop sorting.
func (st *ShardState) Gather() ([]selection.Candidate, bool) {
	if st.eng == nil {
		return nil, false
	}
	st.eng.Sync()
	verts := st.pipe.graph.Vertices()
	// One flat backing array holds every candidate's inferred list: a first
	// pass bounds the total, so the fills below never reallocate and the
	// whole gather costs two allocations instead of one per candidate.
	live, total := 0, 0
	for li, v := range verts {
		if st.resolved.Has(v) || st.hard.Has(v) {
			continue
		}
		live++
		total += len(st.eng.Ball(li)) + 1
	}
	if live == 0 {
		return nil, false
	}
	backing := make([]int, 0, total)
	cands := make([]selection.Candidate, 0, live)
	anyPropagation := false
	for li, v := range verts {
		if st.resolved.Has(v) || st.hard.Has(v) {
			continue
		}
		start := len(backing)
		backing = append(backing, st.pipe.global(li)) // a match label always resolves the question itself
		for _, en := range st.eng.Ball(li) {
			if !st.resolved.Has(verts[en.Idx]) {
				backing = append(backing, st.pipe.global(int(en.Idx)))
			}
		}
		inf := backing[start:len(backing):len(backing)]
		if len(inf) > 1 {
			anyPropagation = true
		}
		cands = append(cands, selection.Candidate{Pair: v, Prob: st.p.Priors[v], Inferred: inf})
	}
	return cands, anyPropagation
}

// Ball returns q's bounded-distance ball as of the last engine sync, in
// propagation order (ascending distance, ties by pair order), resolved
// vertices included — the loop filters against its own result state.
func (st *ShardState) Ball(q pair.Pair) []pair.Pair {
	if st.eng == nil {
		return nil
	}
	g := st.pipe.graph
	qi := g.IndexOf(q)
	if qi < 0 {
		return nil
	}
	verts := g.Vertices()
	ball := st.eng.Ball(qi)
	out := make([]pair.Pair, len(ball))
	for i, k := range ball.DistOrder(verts) { // smaller distance first
		out[i] = verts[ball[k].Idx]
	}
	return out
}

// Rebuild builds a fresh probabilistic graph from the given estimates,
// resets the engine over it and re-detaches the shard's resolved
// non-matches through the same DetachVertex answers use — the per-shard
// half of re-estimation (§VII-A). Walking the shard's vertex order keeps
// the re-detach deterministic and O(shard size).
func (st *ShardState) Rebuild(est map[ergraph.RelPair]consistency.Estimate) {
	if st.eng == nil {
		return
	}
	st.eng.Reset(st.buildProb(est))
	for _, q := range st.pipe.graph.Vertices() {
		if st.detached.Has(q) {
			st.eng.DetachVertex(q)
		}
	}
}

// Invalidate degrades the engine to a full recompute at its next sync.
func (st *ShardState) Invalidate() {
	if st.eng != nil {
		st.eng.InvalidateAll()
	}
}

// Release drops the engine — its dist/rev ball maps are the dominant
// memory. Later operations are no-ops.
func (st *ShardState) Release() { st.eng = nil }

// localRunner is the in-process ShardRunner: one ShardState per shard,
// built concurrently under the pipeline scheduler. Its operations never
// fail.
type localRunner struct {
	states []*ShardState
}

// NewLocalRunner builds the default in-process ShardRunner over the
// prepared pipeline. The initial engine builds are the first propagation
// work of the session; their Dijkstra fan-out lands in the shared engine
// counters.
func NewLocalRunner(p *Prepared) (ShardRunner, error) {
	lr := &localRunner{states: make([]*ShardState, len(p.pipes))}
	p.Cfg.scheduler().ForEach(len(p.pipes), func(s int) {
		lr.states[s] = p.NewShardState(s)
	})
	return lr, nil
}

func (r *localRunner) Resolve(s int, q pair.Pair, detach bool) error {
	r.states[s].Resolve(q, detach)
	return nil
}

func (r *localRunner) MarkHard(s int, q pair.Pair) error {
	r.states[s].MarkHard(q)
	return nil
}

func (r *localRunner) Gather(s int) ([]selection.Candidate, bool, error) {
	cands, anyProp := r.states[s].Gather()
	return cands, anyProp, nil
}

func (r *localRunner) Ball(s int, q pair.Pair) ([]pair.Pair, error) {
	return r.states[s].Ball(q), nil
}

func (r *localRunner) Rebuild(s int, est map[ergraph.RelPair]consistency.Estimate) error {
	r.states[s].Rebuild(est)
	return nil
}

func (r *localRunner) Invalidate(s int) error {
	r.states[s].Invalidate()
	return nil
}

func (r *localRunner) Release(s int) { r.states[s].Release() }

func (r *localRunner) Close() {
	for _, st := range r.states {
		st.Release()
	}
}
