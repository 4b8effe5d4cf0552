package lazyrand

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// draw makes the ith call of a fixed mix over the rand.Rand methods the
// simulated LLM, its rewrites and demonstration selection call, plus the
// rest of rand.Rand's drawing methods, and returns what it drew. Perm and
// Shuffle consume several source draws per call.
func draw(r *rand.Rand, i int) []int64 {
	switch i % 16 {
	case 0:
		return []int64{r.Int63()}
	case 1:
		return []int64{int64(math.Float64bits(r.Float64()))}
	case 2:
		return []int64{int64(r.Intn(7))}
	case 3:
		return []int64{int64(r.Intn(8))} // a power of two masks instead of rejecting
	case 4:
		return []int64{int64(r.Intn(1 << 40))}
	case 5:
		perm := r.Perm(6)
		out := make([]int64, len(perm))
		for j, v := range perm {
			out[j] = int64(v)
		}
		return out
	case 6:
		return []int64{int64(r.Uint64())}
	case 7:
		return []int64{int64(r.Int31()), int64(r.Uint32())}
	case 8:
		return []int64{int64(r.Int31n(1_000_003)), r.Int63n(1 << 62)}
	case 9:
		return []int64{int64(r.Int())}
	case 10:
		return []int64{int64(math.Float32bits(r.Float32()))}
	case 11:
		return []int64{int64(math.Float64bits(r.NormFloat64()))}
	case 12:
		return []int64{int64(math.Float64bits(r.ExpFloat64()))}
	case 13:
		s := []int64{0, 1, 2, 3, 4, 5, 6, 7, 8}
		r.Shuffle(len(s), func(a, b int) { s[a], s[b] = s[b], s[a] })
		return s
	case 14:
		buf := make([]byte, 11)
		r.Read(buf)
		out := make([]int64, len(buf))
		for j, v := range buf {
			out[j] = int64(v)
		}
		return out
	}
	return []int64{int64(r.Intn(3))}
}

// requireSameStream fails unless got and want make the same first n calls
// of the draw mix.
func requireSameStream(t testing.TB, seed int64, got, want *rand.Rand, n int) {
	t.Helper()
	for i := range n {
		if g, w := draw(got, i), draw(want, i); !slices.Equal(g, w) {
			t.Fatalf("seed %d, call %d (mix case %d): lazyrand drew %v, math/rand %v", seed, i, i%16, g, w)
		}
	}
}

// testSeeds are the reduction's edge cases — zero and every multiple of
// 2³¹−1 reduce to math/rand's substitute seed 89482311 — the extremes of
// int64, and 3,000 seeds drawn from a fixed generator.
func testSeeds() []int64 {
	seeds := []int64{
		0, 1, -1, int32max, -int32max, 2 * int32max, 89482311,
		math.MinInt64, math.MaxInt64,
	}
	gen := rand.New(rand.NewSource(20260101))
	for range 3000 {
		seeds = append(seeds, gen.Int63()-gen.Int63())
	}
	return seeds
}

// TestMatchesMathRand draws 700 calls of the mix from each seed, which
// crosses the handover at source draw 274.
func TestMatchesMathRand(t *testing.T) {
	for _, seed := range testSeeds() {
		requireSameStream(t, seed, New(seed), rand.New(rand.NewSource(seed)), 700)
	}
}

// TestSeedRestartsTheStream re-seeds a generator before the handover, after
// it and on a seed that reduces to the same register, and requires
// math/rand's stream each time.
func TestSeedRestartsTheStream(t *testing.T) {
	for _, c := range []struct {
		from, to int64
		before   int // calls of the mix before Seed
	}{
		{1, 2, 10},
		{1, 2, 400},
		{-5, 5, 0},
		{7, 7 + int32max, 300},
		{math.MaxInt64, 0, 120},
	} {
		got, want := New(c.from), rand.New(rand.NewSource(c.from))
		requireSameStream(t, c.from, got, want, c.before)
		got.Seed(c.to)
		want.Seed(c.to)
		requireSameStream(t, c.to, got, want, 700)
	}
}

// TestNewCostsNoRegister holds the point of the package: a generator that
// draws a few values allocates no 607-entry register.
func TestNewCostsNoRegister(t *testing.T) {
	const n = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var sink float64
	for i := range n {
		r := New(int64(i))
		sink += r.Float64() + r.Float64() + float64(r.Intn(6))
	}
	runtime.ReadMemStats(&after)
	if perNew := (after.TotalAlloc - before.TotalAlloc) / n; perNew > 256 {
		t.Errorf("New and three draws allocate %d bytes; a register alone is %d", perNew, rngLen*8)
	}
	_ = sink
}

// FuzzLazyRandMatchesMathRand draws up to 2,000 calls of the mix from an
// arbitrary seed.
func FuzzLazyRandMatchesMathRand(f *testing.F) {
	for _, seed := range []int64{0, 1, -1, int32max, math.MinInt64, math.MaxInt64} {
		f.Add(seed, uint16(700))
	}
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		requireSameStream(t, seed, New(seed), rand.New(rand.NewSource(seed)), int(draws%2000))
	})
}
