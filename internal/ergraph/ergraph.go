// Package ergraph implements the ER graph of Definition 2: a directed,
// edge-labeled multigraph whose vertices are candidate entity pairs and
// whose edges connect (u1,u2) → (u1′,u2′) with label (r1,r2) exactly when
// (u1,r1,u1′) ∈ T1 and (u2,r2,u2′) ∈ T2. The package also exposes the
// connected components and the isolated pairs that the graph cannot reach
// (§VII-B).
package ergraph

import (
	"sort"

	"repro/internal/kb"
	"repro/internal/pair"
)

// RelPair is an edge label: a relationship from each KB. Inverse marks
// edges that traverse the relationships backwards (from object pair to
// subject pair): the paper's §V-B example propagates from (Tim, Tim) to
// the movies Tim directed through the *inverse* of directedBy, so the ER
// graph materializes both directions with distinct labels (each direction
// has its own consistency parameters).
type RelPair struct {
	R1      kb.RelID
	R2      kb.RelID
	Inverse bool
}

// Less is the canonical label order: (R1, R2), forward before inverse. It
// is the single comparator shared by Labels, OutGroupsAt and the edge sort,
// so every consumer processes labels differing only in direction in the
// same, specified order.
func (l RelPair) Less(m RelPair) bool {
	if l.R1 != m.R1 {
		return l.R1 < m.R1
	}
	if l.R2 != m.R2 {
		return l.R2 < m.R2
	}
	return !l.Inverse && m.Inverse
}

// Edge is a labeled directed edge between two vertices (entity pairs).
type Edge struct {
	From  pair.Pair
	To    pair.Pair
	Label RelPair
}

// Graph is an ER graph over a fixed vertex set.
type Graph struct {
	vertices []pair.Pair
	index    map[pair.Pair]int
	// out[i] lists edges leaving vertex i; in[i] lists edges entering it.
	out [][]Edge
	in  [][]Edge
	// outIdx[i][k] is the dense vertex index of out[i][k].To, and
	// inIdx[i][k] that of in[i][k].From. They let edge consumers (BuildProb,
	// Subgraph, the partitioner) walk the topology as flat integer arrays
	// instead of hashing pair.Pair per edge.
	outIdx [][]int32
	inIdx  [][]int32
}

// Build constructs the ER graph on the given vertex set (the retained
// match set Mrd). For every vertex (u1,u2) and every relationship pair
// (r1,r2) with u1 having r1-successors and u2 having r2-successors, an
// edge is added to each successor pair that is also a vertex.
func Build(k1, k2 *kb.KB, vertices []pair.Pair) *Graph {
	g := &Graph{
		vertices: append([]pair.Pair(nil), vertices...),
		index:    make(map[pair.Pair]int, len(vertices)),
		out:      make([][]Edge, len(vertices)),
		in:       make([][]Edge, len(vertices)),
	}
	for i, v := range g.vertices {
		g.index[v] = i
	}
	for i, v := range g.vertices {
		for _, r1 := range k1.OutRels(v.U1) {
			n1 := k1.Out(v.U1, r1)
			for _, r2 := range k2.OutRels(v.U2) {
				n2 := k2.Out(v.U2, r2)
				g.addEdges(i, v, n1, n2, RelPair{R1: r1, R2: r2})
			}
		}
		for _, r1 := range k1.InRels(v.U1) {
			n1 := k1.In(v.U1, r1)
			for _, r2 := range k2.InRels(v.U2) {
				n2 := k2.In(v.U2, r2)
				g.addEdges(i, v, n1, n2, RelPair{R1: r1, R2: r2, Inverse: true})
			}
		}
	}
	for i := range g.out {
		sortEdges(g.out[i])
		sortEdges(g.in[i])
	}
	g.buildDenseIndexes()
	return g
}

// buildDenseIndexes fills outIdx/inIdx from the (sorted) edge lists. It is
// the only per-edge pair hashing the graph ever pays; everything downstream
// reads the dense arrays.
func (g *Graph) buildDenseIndexes() {
	g.outIdx = make([][]int32, len(g.out))
	g.inIdx = make([][]int32, len(g.in))
	for i, es := range g.out {
		if len(es) == 0 {
			continue
		}
		idx := make([]int32, len(es))
		for k, e := range es {
			idx[k] = int32(g.index[e.To])
		}
		g.outIdx[i] = idx
	}
	for i, es := range g.in {
		if len(es) == 0 {
			continue
		}
		idx := make([]int32, len(es))
		for k, e := range es {
			idx[k] = int32(g.index[e.From])
		}
		g.inIdx[i] = idx
	}
}

// addEdges links vertex i to every successor pair (w1, w2) ∈ n1×n2 that is
// itself a vertex, under the given label.
func (g *Graph) addEdges(i int, v pair.Pair, n1, n2 []kb.EntityID, label RelPair) {
	for _, w1 := range n1 {
		for _, w2 := range n2 {
			to := pair.Pair{U1: w1, U2: w2}
			j, ok := g.index[to]
			if !ok || j == i {
				continue
			}
			e := Edge{From: v, To: to, Label: label}
			g.out[i] = append(g.out[i], e)
			g.in[j] = append(g.in[j], e)
		}
	}
}

func sortEdges(es []Edge) {
	sort.Slice(es, func(a, b int) bool {
		if es[a].To != es[b].To {
			return es[a].To.Less(es[b].To)
		}
		if es[a].From != es[b].From {
			return es[a].From.Less(es[b].From)
		}
		return es[a].Label.Less(es[b].Label)
	})
}

// Subgraph returns the induced subgraph on the given vertices (a subset
// of g's vertex set, in any order): edges with either endpoint outside the
// subset are dropped, and surviving edge slices keep the parent's sorted
// order. Extracting a connected component this way is loss-free — every
// incident edge survives — so a per-shard pipeline built on a component
// subgraph sees exactly the evidence the monolithic graph would.
func (g *Graph) Subgraph(vertices []pair.Pair) *Graph {
	sub := &Graph{
		vertices: append([]pair.Pair(nil), vertices...),
		index:    make(map[pair.Pair]int, len(vertices)),
		out:      make([][]Edge, len(vertices)),
		in:       make([][]Edge, len(vertices)),
		outIdx:   make([][]int32, len(vertices)),
		inIdx:    make([][]int32, len(vertices)),
	}
	for i, v := range sub.vertices {
		sub.index[v] = i
	}
	// remap[gi] is the subgraph index of parent vertex gi, or -1 when it was
	// dropped. One hash per subgraph vertex; edge filtering below is pure
	// array arithmetic over the parent's dense indexes.
	remap := make([]int32, len(g.vertices))
	for gi := range remap {
		remap[gi] = -1
	}
	for i, v := range sub.vertices {
		if gi, ok := g.index[v]; ok {
			remap[gi] = int32(i)
		}
	}
	for i, v := range sub.vertices {
		gi, ok := g.index[v]
		if !ok {
			continue
		}
		for k, e := range g.out[gi] {
			if nj := remap[g.outIdx[gi][k]]; nj >= 0 {
				sub.out[i] = append(sub.out[i], e)
				sub.outIdx[i] = append(sub.outIdx[i], nj)
			}
		}
		for k, e := range g.in[gi] {
			if nj := remap[g.inIdx[gi][k]]; nj >= 0 {
				sub.in[i] = append(sub.in[i], e)
				sub.inIdx[i] = append(sub.inIdx[i], nj)
			}
		}
	}
	return sub
}

// Vertices returns the vertex list (do not modify).
func (g *Graph) Vertices() []pair.Pair { return g.vertices }

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return len(g.vertices) }

// NumEdges returns the total directed edge count.
func (g *Graph) NumEdges() int {
	n := 0
	for _, es := range g.out {
		n += len(es)
	}
	return n
}

// Contains reports whether p is a vertex.
func (g *Graph) Contains(p pair.Pair) bool {
	_, ok := g.index[p]
	return ok
}

// IndexOf returns the dense index of vertex p, or -1.
func (g *Graph) IndexOf(p pair.Pair) int {
	if i, ok := g.index[p]; ok {
		return i
	}
	return -1
}

// Out returns the edges leaving p (do not modify).
func (g *Graph) Out(p pair.Pair) []Edge {
	if i, ok := g.index[p]; ok {
		return g.out[i]
	}
	return nil
}

// In returns the edges entering p (do not modify).
func (g *Graph) In(p pair.Pair) []Edge {
	if i, ok := g.index[p]; ok {
		return g.in[i]
	}
	return nil
}

// OutAt returns the edges leaving the vertex with dense index i (do not
// modify).
func (g *Graph) OutAt(i int) []Edge { return g.out[i] }

// InAt returns the edges entering the vertex with dense index i (do not
// modify).
func (g *Graph) InAt(i int) []Edge { return g.in[i] }

// OutIndexesAt returns the dense to-indexes of OutAt(i), parallel slice
// (do not modify).
func (g *Graph) OutIndexesAt(i int) []int32 { return g.outIdx[i] }

// InIndexesAt returns the dense from-indexes of InAt(i), parallel slice
// (do not modify).
func (g *Graph) InIndexesAt(i int) []int32 { return g.inIdx[i] }

// LabelGroup is the out-edges of one vertex under one label, with the
// dense to-index of each edge in the parallel To slice.
type LabelGroup struct {
	Label RelPair
	Edges []Edge
	To    []int32
}

// OutGroupsAt groups vertex i's out edges by label, groups sorted by
// RelPair.Less — (R1, R2, Inverse), so labels differing only in direction
// process in a specified order. Per-group edge order preserves the stored
// edge order (ascending To).
func (g *Graph) OutGroupsAt(i int) []LabelGroup {
	es := g.out[i]
	if len(es) == 0 {
		return nil
	}
	idx := g.outIdx[i]
	pos := make(map[RelPair]int, 4)
	var groups []LabelGroup
	for k, e := range es {
		gi, ok := pos[e.Label]
		if !ok {
			gi = len(groups)
			pos[e.Label] = gi
			groups = append(groups, LabelGroup{Label: e.Label})
		}
		groups[gi].Edges = append(groups[gi].Edges, e)
		groups[gi].To = append(groups[gi].To, idx[k])
	}
	sort.Slice(groups, func(a, b int) bool { return groups[a].Label.Less(groups[b].Label) })
	return groups
}

// Isolated returns the vertices with no incident edges: the isolated
// entity pairs that propagation can never reach (§VII-B).
func (g *Graph) Isolated() []pair.Pair {
	var out []pair.Pair
	for i, v := range g.vertices {
		if len(g.out[i]) == 0 && len(g.in[i]) == 0 {
			out = append(out, v)
		}
	}
	return out
}

// Components returns the weakly connected components as slices of vertex
// pairs, each sorted, largest first (ties broken by first vertex).
func (g *Graph) Components() [][]pair.Pair {
	n := len(g.vertices)
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	next := 0
	var stack []int
	for i := 0; i < n; i++ {
		if comp[i] != -1 {
			continue
		}
		stack = append(stack[:0], i)
		comp[i] = next
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, j := range g.outIdx[v] {
				if comp[j] == -1 {
					comp[j] = next
					stack = append(stack, int(j))
				}
			}
			for _, j := range g.inIdx[v] {
				if comp[j] == -1 {
					comp[j] = next
					stack = append(stack, int(j))
				}
			}
		}
		next++
	}
	groups := make([][]pair.Pair, next)
	for i, c := range comp {
		groups[c] = append(groups[c], g.vertices[i])
	}
	for _, grp := range groups {
		sort.Slice(grp, func(a, b int) bool { return grp[a].Less(grp[b]) })
	}
	sort.Slice(groups, func(a, b int) bool {
		if len(groups[a]) != len(groups[b]) {
			return len(groups[a]) > len(groups[b])
		}
		return groups[a][0].Less(groups[b][0])
	})
	return groups
}

// Labels returns the distinct edge labels present in the graph, sorted.
func (g *Graph) Labels() []RelPair {
	seen := make(map[RelPair]struct{})
	for _, es := range g.out {
		for _, e := range es {
			seen[e.Label] = struct{}{}
		}
	}
	out := make([]RelPair, 0, len(seen))
	for l := range seen {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}
