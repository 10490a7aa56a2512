package kernels

import "testing"

// These benchmarks measure the real kernels' per-iteration chunk
// throughput — the actual compute the hetero executor divides.

func BenchmarkKMeansChunk(b *testing.B) {
	km := NewKMeans(10000, 8, 8, 1<<30, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		km.Chunk(0, km.Items())
	}
}

func BenchmarkHotspotChunk(b *testing.B) {
	h := NewHotspot(256, 256, 1<<30, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Chunk(0, h.Items())
	}
}

func BenchmarkSRADChunk(b *testing.B) {
	s := NewSRAD(256, 256, 1<<30, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Chunk(0, s.Items())
	}
}

func BenchmarkPathFinderChunk(b *testing.B) {
	p := NewPathFinder(1024, 4096, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Chunk(0, p.Items())
	}
}

func BenchmarkBFSFullRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bfs := NewBFS(20000, 4, uint64(i)+1)
		RunSerial(bfs)
	}
}
