package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	crowdpkg "repro/internal/crowd"
	"repro/internal/pair"
	"repro/internal/server"
	"repro/internal/session"
	"repro/remp"
)

// oracleAsker answers the synchronous oracle with the simulated crowd's
// labels, exactly as the benchmark's clients answer the server.
type oracleAsker struct {
	c  crowd
	in *input
	n  int
}

func (a *oracleAsker) Ask(q pair.Pair) []crowdpkg.Label {
	a.n++
	return session.ToCrowd(a.c.labels(q, a.in.gold.IsMatch(q)))
}

func (a *oracleAsker) NumQuestions() int { return a.n }

// oracle returns the canonical /result bytes of a synchronous
// remp.Resolve over in with the crowd's labels.
func oracle(in *input, c crowd) ([]byte, error) {
	res, err := remp.Resolve(remp.Dataset{K1: in.k1, K2: in.k2}, &oracleAsker{c: c, in: in}, in.e.opts.ToOptions())
	if err != nil {
		return nil, fmt.Errorf("oracle for %s: %w", in.key, err)
	}
	dto := server.ResultDTO{
		Done:              true,
		Questions:         res.Questions,
		Deduced:           res.Deduced,
		Loops:             res.Loops,
		Matches:           make([][2]string, 0, len(res.Matches)),
		Confirmed:         len(res.Confirmed),
		Propagated:        len(res.Propagated),
		IsolatedPredicted: len(res.IsolatedPredicted),
		NonMatches:        len(res.NonMatches),
	}
	for _, m := range pair.Set(res.Matches).Sorted() {
		dto.Matches = append(dto.Matches, [2]string{in.k1.EntityName(m.U1), in.k2.EntityName(m.U2)})
	}
	prf := remp.Evaluate(res.Matches, in.gold)
	dto.PRF = &server.PRFDTO{Precision: prf.Precision, Recall: prf.Recall, F1: prf.F1}
	return json.Marshal(dto)
}

// canonical re-marshals a fetched result for byte comparison against
// the oracle.
func canonical(dto *server.ResultDTO) ([]byte, error) {
	if dto.Matches == nil {
		dto.Matches = [][2]string{}
	}
	return json.Marshal(dto)
}

// oracles computes the oracle of every distinct entry once, on up to
// par goroutines, after the timed phases so none of it is measured.
func oracles(entries []entry, in *inputs, c crowd, par int) (map[string][]byte, error) {
	out := make(map[string][]byte, len(entries))
	var mu sync.Mutex
	var errs []error
	work := make(chan entry)
	var wg sync.WaitGroup
	for g := 0; g < par; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for e := range work {
				data, err := in.get(e)
				var b []byte
				if err == nil {
					b, err = oracle(data, c)
				}
				mu.Lock()
				errs = append(errs, err)
				out[e.key()] = b
				mu.Unlock()
			}
		}()
	}
	for _, e := range entries {
		work <- e
	}
	close(work)
	wg.Wait()
	return out, errors.Join(errs...)
}
