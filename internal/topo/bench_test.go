package topo

import (
	"math"
	"math/rand"
	"testing"
)

// Old-vs-new path machinery benchmarks (go test -bench . ./internal/topo):
// the *BFS and WeightedPath variants are the preserved legacy per-query
// implementations, the others hit the distance oracle tables.

func BenchmarkDistancesBFS(b *testing.B) {
	g := Johannesburg()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = g.DistancesBFS(i % 20)
	}
}

func BenchmarkDistancesOracle(b *testing.B) {
	g := Johannesburg()
	g.EnsureOracle()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Distances(i % 20)
	}
}

func BenchmarkShortestPathBFS(b *testing.B) {
	g := Johannesburg()
	rng := rand.New(rand.NewSource(1))
	prefer := func(c []int) int { return rng.Intn(len(c)) }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = g.ShortestPathTieBreakBFS(i%20, (i*7+3)%20, prefer)
	}
}

func BenchmarkShortestPathOracle(b *testing.B) {
	g := Johannesburg()
	g.EnsureOracle()
	rng := rand.New(rand.NewSource(1))
	prefer := func(c []int32) int { return rng.Intn(len(c)) }
	buf := make([]int, 0, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		buf, _ = g.ShortestPathAppend(buf, i%20, (i*7+3)%20, prefer)
	}
}

func benchWeight(a, b int) float64 {
	if a > b {
		a, b = b, a
	}
	return -math.Log(0.99 - 0.002*float64((a*31+b*17)%9))
}

func BenchmarkWeightedPathDijkstra(b *testing.B) {
	g := Johannesburg()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = g.WeightedPath(i%20, (i*7+3)%20, benchWeight)
	}
}

func BenchmarkWeightedOracle(b *testing.B) {
	g := Johannesburg()
	o := NewWeightedOracle(g, benchWeight)
	buf := make([]int, 0, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		buf, _ = o.PathAppend(buf, i%20, (i*7+3)%20)
	}
}

func BenchmarkWeightedOracleBuild(b *testing.B) {
	g := Johannesburg()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = NewWeightedOracle(g, benchWeight)
	}
}

func BenchmarkOracleBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := Johannesburg()
		g.EnsureOracle()
	}
}
