package core

import (
	"repro/internal/consistency"
	"repro/internal/ergraph"
	"repro/internal/partition"
	"repro/internal/selection"
)

// Auto-sharding thresholds: below autoShardMinVertices the per-shard
// bookkeeping costs more than it saves, so Shards = 0 (auto) stays
// single-shard; above it, one shard per ~autoShardVerticesPerShard
// vertices, capped at maxAutoShards. Sharding bounds the peak size of any
// one engine's dist/rev ball maps and lets settled shards release them
// entirely, so the cap is deliberately above typical core counts.
const (
	autoShardMinVertices      = 4096
	autoShardVerticesPerShard = 1024
	maxAutoShards             = 16
)

// resolveShardCount maps the configured Shards value onto a concrete
// count for a graph of the given size: 1 (or an empty graph) disables
// sharding, an explicit count is honored up to the vertex count, and 0
// picks automatically from the graph size.
func resolveShardCount(requested, vertices int) int {
	switch {
	case vertices == 0 || requested == 1:
		return 1
	case requested > 1:
		if requested > vertices {
			return vertices
		}
		return requested
	default: // auto
		if vertices < autoShardMinVertices {
			return 1
		}
		s := vertices / autoShardVerticesPerShard
		if s > maxAutoShards {
			s = maxAutoShards
		}
		return s
	}
}

// shardPipe is one shard's slice of the prepared pipeline: the induced
// component subgraph. Because the partition respects relational edges,
// every edge of a shard vertex lives in the same shard, so a shard's
// probabilistic subgraph has bit-identical probabilities and propagation
// to the monolithic one restricted to the shard.
type shardPipe struct {
	id    int
	graph *ergraph.Graph
	// globalIdx maps shard-local vertex indexes to p.Graph indexes; nil
	// means identity (the single-shard pipe reuses p.Graph directly).
	globalIdx []int
	// labels is the set of edge labels present in the shard, used to skip
	// re-estimation rebuilds when no label the shard depends on changed.
	labels []ergraph.RelPair
}

// global maps a shard-local vertex index to the global p.Graph index.
func (sp *shardPipe) global(local int) int {
	if sp.globalIdx == nil {
		return local
	}
	return sp.globalIdx[local]
}

// labelsChanged reports whether any edge label of this shard has a
// different fitted consistency than before. BuildProb consumes only the
// (ε1, ε2) point estimates, so identical estimates for every shard label
// guarantee a rebuild would reproduce the current probabilistic graph
// bit for bit — the rebuild is skipped and the incremental engine state
// (which already carries all detachments) stays authoritative.
func (sp *shardPipe) labelsChanged(old, new map[ergraph.RelPair]consistency.Estimate) bool {
	for _, lbl := range sp.labels {
		o, n := old[lbl], new[lbl]
		if o.Eps1 != n.Eps1 || o.Eps2 != n.Eps2 {
			return true
		}
	}
	return false
}

// initShards resolves the shard count and builds the per-shard pipelines.
// A single-shard pipeline reuses the global graph; a sharded one induces
// one subgraph per shard concurrently.
func (p *Prepared) initShards() {
	count := resolveShardCount(p.Cfg.Shards, p.Graph.NumVertices())
	if count <= 1 {
		p.pipes = []*shardPipe{{id: 0, graph: p.Graph, labels: p.Graph.Labels()}}
		return
	}
	verts := p.Graph.Vertices()
	neighbors := func(i int) []int {
		idx := p.Graph.OutIndexesAt(i)
		out := make([]int, len(idx))
		for k, j := range idx {
			out[k] = int(j)
		}
		return out
	}
	p.Part = partition.Split(verts, neighbors, count)
	pipes := make([]*shardPipe, p.Part.NumShards())
	p.Cfg.scheduler().ForEach(len(pipes), func(s int) {
		vs := p.Part.Shard(s)
		g := p.Graph.Subgraph(vs)
		globalIdx := make([]int, len(vs))
		for i, v := range vs {
			globalIdx[i] = p.Graph.IndexOf(v)
		}
		pipes[s] = &shardPipe{
			id:        s,
			graph:     g,
			globalIdx: globalIdx,
			labels:    g.Labels(),
		}
	})
	p.pipes = pipes
}

// NumShards returns the number of shards the pipeline was split into
// (1 when sharding is off).
func (p *Prepared) NumShards() int { return len(p.pipes) }

// ShardSizes returns the vertex count per shard, the shard assignment
// fingerprint recorded by session snapshots.
func (p *Prepared) ShardSizes() []int {
	out := make([]int, len(p.pipes))
	for i, sp := range p.pipes {
		out[i] = sp.graph.NumVertices()
	}
	return out
}

// mergeCandidates interleaves per-shard candidate lists back into global
// vertex order (each candidate's Inferred[0] is its own global index, and
// each shard's list is ascending in it), so the merged list is exactly
// what a monolithic gather would produce. pos[s][i] gives the merged
// position of shard s's i-th candidate, which the benefit-ordered merge
// uses as the global tie-break.
func mergeCandidates(per [][]selection.Candidate) (merged []selection.Candidate, pos [][]int) {
	pos = make([][]int, len(per))
	total := 0
	for s, list := range per {
		pos[s] = make([]int, len(list))
		total += len(list)
	}
	if len(per) == 1 {
		for i := range pos[0] {
			pos[0][i] = i
		}
		return per[0], pos
	}
	merged = make([]selection.Candidate, 0, total)
	heads := make([]int, len(per))
	for len(merged) < total {
		best := -1
		bestIdx := 0
		for s, list := range per {
			if heads[s] >= len(list) {
				continue
			}
			gi := list[heads[s]].Inferred[0]
			if best < 0 || gi < bestIdx {
				best, bestIdx = s, gi
			}
		}
		pos[best][heads[best]] = len(merged)
		merged = append(merged, per[best][heads[best]])
		heads[best]++
	}
	return merged, pos
}
