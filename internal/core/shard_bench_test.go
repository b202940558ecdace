package core

import (
	"fmt"
	"testing"

	"repro/internal/datasets"
)

// BenchmarkShardedLoop measures the end-to-end human–machine loop
// (initial engine build through final classification, preparation
// excluded) on the clustered synthetic graph, monolithic versus sharded.
// The sharded loop wins even single-threaded: re-estimation rebuilds,
// candidate gathering and ranked selection are scoped to the shards a
// batch actually touched, and settled shards freeze outright.
func BenchmarkShardedLoop(b *testing.B) {
	ds := datasets.Clustered(48, 24, 1)
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Shards = shards
			p := Prepare(ds.K1, ds.K2, cfg)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = p.Run(NewOracleAsker(ds.Gold.IsMatch))
			}
		})
	}
}
