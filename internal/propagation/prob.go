package propagation

import (
	"math"
	"slices"

	"repro/internal/consistency"
	"repro/internal/ergraph"
	"repro/internal/kb"
	"repro/internal/pair"
)

// ProbGraph is the probabilistic ER graph: the ER graph with each directed
// edge (v, v′) annotated with the conditional probability Pr[m_v′ | m_v]
// obtained from neighbor propagation. When several labels connect the same
// ordered vertex pair, the most informative (maximum) probability is kept.
//
// Storage is compressed sparse row, built once by BuildProb: row i's edges
// occupy colIdx/prob/length[rowStart[i]:rowStart[i+1]], ascending in
// colIdx, with length[e] = −log prob[e] precomputed so the Dijkstra hot
// loop never calls math.Log. The in-CSR (inRowStart/inSrc/inPos) mirrors
// the topology for reverse traversal; inPos names the out-CSR slot of each
// in-edge, so the prob/length arrays stay the single source of truth.
// The only mutation is detachment (detachAt), which zeroes a vertex's
// slots in place (prob 0, length +Inf — the ζ-bound prunes them with the
// comparison it already performs). Re-estimation never edits a graph: it
// builds a fresh one and re-detaches.
type ProbGraph struct {
	g *ergraph.Graph

	rowStart []int32
	colIdx   []int32
	prob     []float64
	length   []float64 // −log prob, +Inf for removed slots

	// in-CSR mirror: vertex j's in-edges are inSrc/inPos[inRowStart[j]:
	// inRowStart[j+1]]; inSrc is the source vertex, inPos the out-CSR slot.
	inRowStart []int32
	inSrc      []int32
	inPos      []int32

	// Live (positive-probability) degree per vertex, maintained by
	// detachAt so DetachVertex can skip vertices that are already bare
	// without scanning their rows.
	outDeg []int32
	inDeg  []int32
}

// Params configures probabilistic graph construction.
type Params struct {
	// Priors maps candidate pairs to prior match probabilities Pr[m_p];
	// missing pairs default to DefaultPrior.
	Priors map[pair.Pair]float64
	// DefaultPrior is used for pairs absent from Priors (0.5 if zero).
	DefaultPrior float64
	// Consistency maps each edge label to its fitted (ε1, ε2); missing
	// labels fall back to ε = 0.5 on both sides.
	Consistency map[ergraph.RelPair]consistency.Estimate
	// MaxExactCandidates bounds the exact marginalization instance size
	// (number of candidate pairs in one neighborhood); larger instances use
	// the local-exclusion approximation. Default 48.
	MaxExactCandidates int
}

func (p *Params) fill() {
	if p.DefaultPrior == 0 {
		p.DefaultPrior = 0.5
	}
	if p.MaxExactCandidates == 0 {
		p.MaxExactCandidates = 48
	}
}

// BuildProb computes conditional probabilities for every edge of g.
// Rows accumulate through an epoch-stamped dense scratch (value + stamp
// per vertex), so the max-merge across labels costs no map operations and
// candidate indexes come straight from the graph's dense to-index arrays.
func BuildProb(g *ergraph.Graph, k1, k2 *kb.KB, params Params) *ProbGraph {
	params.fill()
	n := g.NumVertices()
	pg := &ProbGraph{g: g, rowStart: make([]int32, n+1)}
	rowVal := make([]float64, n)
	rowStamp := make([]uint32, n)
	var epoch uint32
	var js []int32
	nbb := newNBBuilder()
	verts := g.Vertices()
	for i := 0; i < n; i++ {
		epoch++
		js = js[:0]
		// Labels process in the canonical (R1, R2, Inverse) order; the
		// per-row result is a max-merge, so the order only fixes tie-free
		// determinism, not the values.
		for _, grp := range g.OutGroupsAt(i) {
			nb := nbb.build(k1, k2, verts[i], grp, params)
			var post []float64
			if len(nb.Cands) > params.MaxExactCandidates {
				// Force the approximation path by inflating dimensions.
				post = approxPosteriors(nb.Cands, candWeights(nb))
			} else {
				post = nb.Posteriors()
			}
			for ci, c := range nb.Cands {
				j := c.Idx
				if j < 0 || int(j) == i || post[ci] <= 0 {
					continue
				}
				if rowStamp[j] != epoch {
					rowStamp[j] = epoch
					rowVal[j] = post[ci]
					js = append(js, j)
				} else if post[ci] > rowVal[j] {
					rowVal[j] = post[ci]
				}
			}
		}
		slices.Sort(js)
		for _, j := range js {
			pg.colIdx = append(pg.colIdx, j)
			pg.prob = append(pg.prob, rowVal[j])
		}
		pg.rowStart[i+1] = int32(len(pg.colIdx))
	}
	pg.finish()
	return pg
}

// finish derives every secondary array (edge lengths, the in-CSR mirror,
// live degrees) from rowStart/colIdx/prob. It is shared by BuildProb and
// the test constructors.
func (pg *ProbGraph) finish() {
	n := pg.g.NumVertices()
	m := len(pg.colIdx)
	pg.length = make([]float64, m)
	pg.outDeg = make([]int32, n)
	pg.inDeg = make([]int32, n)
	cnt := make([]int32, n+1)
	for e := 0; e < m; e++ {
		if pg.prob[e] > 0 {
			pg.length[e] = -math.Log(pg.prob[e])
		} else {
			pg.length[e] = math.Inf(1)
		}
		cnt[pg.colIdx[e]+1]++
	}
	pg.inRowStart = make([]int32, n+1)
	for j := 0; j < n; j++ {
		pg.inRowStart[j+1] = pg.inRowStart[j] + cnt[j+1]
	}
	pg.inSrc = make([]int32, m)
	pg.inPos = make([]int32, m)
	fill := append([]int32(nil), pg.inRowStart[:n]...)
	for i := 0; i < n; i++ {
		for e := pg.rowStart[i]; e < pg.rowStart[i+1]; e++ {
			j := pg.colIdx[e]
			k := fill[j]
			fill[j]++
			pg.inSrc[k] = int32(i)
			pg.inPos[k] = e
			if pg.prob[e] > 0 {
				pg.outDeg[i]++
				pg.inDeg[j]++
			}
		}
	}
}

func candWeights(nb *Neighborhood) []float64 {
	w := make([]float64, len(nb.Cands))
	for i, c := range nb.Cands {
		prior := clampProb(c.Prior)
		e1 := clampProb(nb.Eps1)
		e2 := clampProb(nb.Eps2)
		w[i] = prior / (1 - prior) * e1 / (1 - e1) * e2 / (1 - e2)
	}
	return w
}

// nbBuilder assembles propagation instances, reusing its maps and
// candidate buffer across every (vertex, label) of one BuildProb call —
// each neighborhood is consumed (posteriors recorded) before the next
// build overwrites it.
type nbBuilder struct {
	rowIdx map[kb.EntityID]int
	colIdx map[kb.EntityID]int
	seen   map[int32]struct{}
	nb     Neighborhood
}

func newNBBuilder() *nbBuilder {
	return &nbBuilder{
		rowIdx: map[kb.EntityID]int{},
		colIdx: map[kb.EntityID]int{},
		seen:   map[int32]struct{}{},
	}
}

// build assembles the propagation instance for vertex v and one edge
// label group: distinct successor entities on each side index the
// rows/columns, and each successor pair that is a graph vertex becomes a
// candidate with its prior. Candidates carry the dense vertex index from
// the group's To slice, so recording needs no pair lookups.
func (b *nbBuilder) build(k1, k2 *kb.KB, v pair.Pair, grp ergraph.LabelGroup, params Params) *Neighborhood {
	clear(b.rowIdx)
	clear(b.colIdx)
	clear(b.seen)
	rowIdx, colIdx := b.rowIdx, b.colIdx
	nb := &b.nb
	nb.Cands = nb.Cands[:0]
	label := grp.Label
	if label.Inverse {
		nb.N1Size = len(k1.In(v.U1, label.R1))
		nb.N2Size = len(k2.In(v.U2, label.R2))
	} else {
		nb.N1Size = len(k1.Out(v.U1, label.R1))
		nb.N2Size = len(k2.Out(v.U2, label.R2))
	}
	est, ok := params.Consistency[label]
	if !ok {
		est = consistency.Estimate{Eps1: 0.5, Eps2: 0.5}
	}
	nb.Eps1, nb.Eps2 = est.Eps1, est.Eps2
	for k, e := range grp.Edges {
		j := grp.To[k]
		if _, dup := b.seen[j]; dup {
			continue
		}
		b.seen[j] = struct{}{}
		r, ok := rowIdx[e.To.U1]
		if !ok {
			r = len(rowIdx)
			rowIdx[e.To.U1] = r
		}
		c, ok := colIdx[e.To.U2]
		if !ok {
			c = len(colIdx)
			colIdx[e.To.U2] = c
		}
		prior, ok := params.Priors[e.To]
		if !ok {
			prior = params.DefaultPrior
		}
		nb.Cands = append(nb.Cands, CandidatePair{Row: r, Col: c, Pair: e.To, Prior: prior, Idx: j})
	}
	return nb
}

// Graph returns the underlying ER graph.
func (pg *ProbGraph) Graph() *ergraph.Graph { return pg.g }

// slot binary-searches row i for column j, returning the out-CSR position
// or -1 when the row never had the edge.
//
//remp:hotpath
func (pg *ProbGraph) slot(i, j int) int32 {
	lo, hi := pg.rowStart[i], pg.rowStart[i+1]
	for lo < hi {
		mid := lo + (hi-lo)/2 // overflow-safe for edge counts near int32 max
		if pg.colIdx[mid] < int32(j) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < pg.rowStart[i+1] && pg.colIdx[lo] == int32(j) {
		return lo
	}
	return -1
}

// probAt returns Pr[m_j | m_i] by dense index, or 0 when the edge is
// absent or was removed.
//
//remp:hotpath
func (pg *ProbGraph) probAt(i, j int) float64 {
	if e := pg.slot(i, j); e >= 0 {
		return pg.prob[e]
	}
	return 0
}

// detachAt removes every live edge incident to vertex i, zeroing its CSR
// slots in place through both mirrors.
//
//remp:hotpath
func (pg *ProbGraph) detachAt(i int) {
	for e := pg.rowStart[i]; e < pg.rowStart[i+1]; e++ {
		if pg.prob[e] > 0 {
			pg.prob[e] = 0
			pg.length[e] = math.Inf(1)
			pg.outDeg[i]--
			pg.inDeg[pg.colIdx[e]]--
		}
	}
	for k := pg.inRowStart[i]; k < pg.inRowStart[i+1]; k++ {
		e := pg.inPos[k]
		if pg.prob[e] > 0 {
			pg.prob[e] = 0
			pg.length[e] = math.Inf(1)
			pg.outDeg[pg.inSrc[k]]--
			pg.inDeg[i]--
		}
	}
}

// degreeAt returns the live out/in degree of vertex i.
func (pg *ProbGraph) degreeAt(i int) (out, in int32) {
	return pg.outDeg[i], pg.inDeg[i]
}

// Prob returns Pr[m_to | m_from], or 0 when no edge exists.
func (pg *ProbGraph) Prob(from, to pair.Pair) float64 {
	i := pg.g.IndexOf(from)
	j := pg.g.IndexOf(to)
	if i < 0 || j < 0 {
		return 0
	}
	return pg.probAt(i, j)
}

// NumEdges returns the number of positive-probability directed edges.
func (pg *ProbGraph) NumEdges() int {
	n := 0
	for _, p := range pg.prob {
		if p > 0 {
			n++
		}
	}
	return n
}

// Length returns −log Pr[m_to | m_from], the shortest-path edge length of
// §VI-B, or +Inf when the edge is absent.
func (pg *ProbGraph) Length(from, to pair.Pair) float64 {
	p := pg.Prob(from, to)
	if p <= 0 {
		return math.Inf(1)
	}
	return -math.Log(p)
}
