package core

import (
	"slices"

	"repro/internal/deduce"
	"repro/internal/ergraph"
	"repro/internal/pair"
	"repro/internal/selection"
)

// Result is the outcome of a full Remp run.
type Result struct {
	// Matches is the final match set: worker-confirmed, propagated, and
	// (when enabled) classifier-predicted isolated matches.
	Matches pair.Set
	// Confirmed are matches labeled directly by workers.
	Confirmed pair.Set
	// Propagated are matches inferred through the ER graph.
	Propagated pair.Set
	// IsolatedPredicted are matches predicted by the random forest.
	IsolatedPredicted pair.Set
	// NonMatches are pairs resolved negative by workers.
	NonMatches pair.Set
	// Questions is the number of distinct questions asked.
	Questions int
	// Deduced is the number of selected questions skipped because their
	// verdict was already implied by recorded answers (Config.Deduce):
	// crowd questions saved by transitive-closure deduction.
	Deduced int
	// Loops is the number of human-machine loops executed.
	Loops int
}

// Run executes the human–machine loop against the Asker and returns the
// final result. It terminates when no unresolved pair can be inferred by
// relational match propagation (the paper's stop criterion), when the
// question budget is exhausted, or when MaxLoops is reached.
//
// Run is the synchronous driver over the Loop state machine (loop.go): it
// pulls each published batch and pushes the Asker's answers back in
// selection order. Bounded-distance inference is owned by incremental
// propagation.Engines — one per shard — and the Sync at the top of each
// loop recomputes just the dirty sources, instead of the full InferAll
// re-run the loop used to pay whenever an edge changed. Re-estimation
// refits consistency globally and rebuilds only the shards whose labels
// actually changed. Each batch of µ questions is resolved against the
// snapshot taken at the loop top, exactly as before.
func (p *Prepared) Run(asker Asker) *Result {
	l := p.NewLoop()
	for !l.Done() {
		if err := l.Err(); err != nil {
			// Unreachable with the in-process runner; a remote runner that
			// lost its whole cluster surfaces here.
			panic(err)
		}
		batch := l.Batch()
		if len(batch) == 0 {
			// Unreachable by the Loop invariant (an open loop always has an
			// unanswered question); guard against a stalled machine rather
			// than spinning.
			panic("core: loop awaiting answers with no open question")
		}
		for _, q := range batch {
			if l.WasDeduced(q) {
				// An earlier answer's cascade already implied q's
				// verdict; deduction skipped it, so no crowd question.
				continue
			}
			if err := l.Deliver(q, asker.Ask(q)); err != nil {
				panic(err) // q came from Batch; delivery cannot fail
			}
			if l.Done() {
				break
			}
		}
	}
	return l.Result()
}

// padBatch extends a selection to mu questions with the highest-prior
// candidates not yet chosen.
func padBatch(cands []selection.Candidate, chosen []int, mu int) []int {
	taken := make(map[int]bool, len(chosen))
	for _, i := range chosen {
		taken[i] = true
	}
	rest := make([]int, 0, len(cands))
	for i := range cands {
		if !taken[i] {
			rest = append(rest, i)
		}
	}
	slices.SortFunc(rest, func(a, b int) int {
		if cands[a].Prob != cands[b].Prob {
			if cands[a].Prob > cands[b].Prob {
				return -1
			}
			return 1
		}
		if cands[a].Pair.Less(cands[b].Pair) {
			return -1
		}
		return 1
	})
	for _, i := range rest {
		if len(chosen) >= mu {
			break
		}
		chosen = append(chosen, i)
	}
	return chosen
}

// confirmMatch records a worker-confirmed match and propagates it: every
// unresolved pair with Pr[m_p | m_q] ≥ τ becomes an inferred match,
// processed in decreasing probability so that the 1:1 entity constraint
// lets the most probable pair of an entity win. Competitor vertices
// sharing an entity with a new match are resolved as non-matches and
// detached (the "re-estimate edges with new matches and non-matches" step
// of §VII-A). Propagation reads the shard engine's last-Sync snapshot —
// the runner returns the ball in distance order, unfiltered — and the
// whole cascade stays within q's shard by construction.
func (l *Loop) confirmMatch(q pair.Pair) {
	l.record(q, deduce.Match)
	l.res.Confirmed.Add(q)
	l.res.Matches.Add(q)
	l.pendingSeeds = append(l.pendingSeeds, q)
	l.resolveCompetitors(q)
	s := l.shardIndex(q)
	if s < 0 || l.shards[s].settled || l.err != nil {
		return
	}
	if err := l.r.Resolve(s, q, false); err != nil {
		l.fail(err)
		return
	}
	ball, err := l.r.Ball(s, q)
	if err != nil {
		l.fail(err)
		return
	}
	for _, pj := range ball { // smaller distance first
		if l.resolved(pj) {
			continue
		}
		l.record(pj, deduce.Match)
		l.res.Propagated.Add(pj)
		l.res.Matches.Add(pj)
		l.pendingSeeds = append(l.pendingSeeds, pj)
		l.runnerResolve(pj, false)
		l.resolveCompetitors(pj)
	}
}

// resolveCompetitors marks every unresolved vertex sharing an entity with
// the match m as a non-match and detaches it from the propagation fabric.
// Competitor chains may cross shards (the partition follows relational
// edges only); detaches run on the serial answer-application path and
// route to the owning shard through the runner, so cross-shard
// competitors resolve exactly as in the monolithic loop.
func (l *Loop) resolveCompetitors(m pair.Pair) {
	for _, side := range [][]pair.Pair{l.p.byEntity1[m.U1], l.p.byEntity2[m.U2]} {
		for _, v := range side {
			if v == m || l.resolved(v) {
				continue
			}
			l.markNonMatch(v)
		}
	}
}

// reestimate re-fits consistency from the enlarged seed set (initial
// matches plus confirmed and propagated matches) into the loop's own
// estimates and rebuilds the edge probabilities, keeping detached
// vertices detached (§VII-A). Both steps are scoped exactly:
//
//   - The refit skips labels none of the newly confirmed or propagated
//     matches touch. A label's observations are its seeds' neighborhoods
//     plus the seed-set membership of their neighbor pairs; a new seed
//     can only perturb either by participating in the label's relations,
//     so an untouched label's observations — and its deterministic fit —
//     are unchanged.
//   - A shard rebuilds (concurrently with its siblings) only when some
//     label it contains was re-fitted to different (ε1, ε2); otherwise
//     its incremental engine state, which already carries every
//     detachment, is bit-identical to what the rebuild would produce.
//
// The debugFullResync hook disables both scopes, so the equivalence tests
// diff the scoped machine against the recompute-everything policy.
func (l *Loop) reestimate() {
	p := l.p
	seeds := make([]pair.Pair, 0, len(p.Blocking.Initial)+l.res.Matches.Len())
	seen := pair.Set{}
	for _, m := range p.Blocking.Initial {
		if !seen.Has(m) {
			seen.Add(m)
			seeds = append(seeds, m)
		}
	}
	for _, m := range l.res.Matches.Sorted() {
		if !seen.Has(m) {
			seen.Add(m)
			seeds = append(seeds, m)
		}
	}
	old := l.est
	l.est = p.refitConsistency(seeds, old, l.touchedLabels())
	l.pendingSeeds = l.pendingSeeds[:0]
	rebuild := make([]int, 0, len(l.shards))
	for s, sh := range l.shards {
		if sh.settled {
			continue
		}
		if !p.Cfg.debugFullResync && !sh.pipe.labelsChanged(old, l.est) {
			continue
		}
		rebuild = append(rebuild, s)
	}
	errs := make([]error, len(rebuild))
	p.Cfg.scheduler().ForEach(len(rebuild), func(i int) {
		// The runner rebuilds the shard's probabilistic graph and
		// re-detaches its resolved non-matches (ShardState.Rebuild).
		errs[i] = l.r.Rebuild(rebuild[i], l.est)
		l.shards[rebuild[i]].dirty = true
	})
	for _, err := range errs {
		if err != nil {
			l.fail(err)
			return
		}
	}
}

// touchedLabels returns the edge labels whose consistency observations
// could have changed since the last refit: those some pending seed's
// entities participate in (in either direction — a new seed adds an
// observation row through its own neighborhoods and flips KnownL counts
// by being a neighbor pair of an existing seed). nil means all labels
// (the debugFullResync policy).
func (l *Loop) touchedLabels() map[ergraph.RelPair]bool {
	if l.p.Cfg.debugFullResync {
		return nil
	}
	touched := make(map[ergraph.RelPair]bool)
	for _, label := range l.p.Graph.Labels() {
		for _, m := range l.pendingSeeds {
			if len(l.p.K1.Out(m.U1, label.R1)) > 0 || len(l.p.K1.In(m.U1, label.R1)) > 0 ||
				len(l.p.K2.Out(m.U2, label.R2)) > 0 || len(l.p.K2.In(m.U2, label.R2)) > 0 {
				touched[label] = true
				break
			}
		}
	}
	return touched
}
