package sim

import (
	"math"
	"math/rand"
	"testing"
)

// compareRand drives NewRand(seed) and math/rand's reference source with
// the same mixed sequence of calls — every Rand method the simulator uses
// plus the raw Uint64 stream — and fails at the first difference. The
// call mix is chosen by a third, independent stream, so both generators
// see identical call sequences.
func compareRand(t *testing.T, seed int64, calls int, mix *rand.Rand) {
	t.Helper()
	got, want := NewRand(seed), rand.New(rand.NewSource(seed))
	for i := 0; i < calls; i++ {
		var g, w uint64
		op := mix.Intn(7)
		switch op {
		case 0:
			g, w = math.Float64bits(got.Float64()), math.Float64bits(want.Float64())
		case 1:
			g, w = math.Float64bits(got.ExpFloat64()), math.Float64bits(want.ExpFloat64())
		case 2:
			g, w = uint64(got.Int63()), uint64(want.Int63())
		case 3:
			n := 1 + mix.Int63n(math.MaxInt64)
			g, w = uint64(got.Int63n(n)), uint64(want.Int63n(n))
		case 4:
			n := 1 + mix.Intn(1000)
			g, w = uint64(got.Intn(n)), uint64(want.Intn(n))
		case 5:
			a := make([]int, 1+mix.Intn(16))
			for j := range a {
				a[j] = j
			}
			b := append([]int(nil), a...)
			got.Shuffle(len(a), func(i, j int) { a[i], a[j] = a[j], a[i] })
			want.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
			for j := range a {
				if a[j] != b[j] {
					t.Fatalf("seed %d call %d: Shuffle gave %v, want %v", seed, i, a, b)
				}
			}
		case 6:
			g, w = got.Uint64(), want.Uint64()
		}
		if g != w {
			t.Fatalf("seed %d call %d (op %d): got %#x, want %#x", seed, i, op, g, w)
		}
	}
}

// TestNewRandMatchesStdlib pins NewRand to rand.New(rand.NewSource(seed))
// across seed edge cases (zero, negatives, multiples of the Lehmer modulus,
// the seed math/rand substitutes for zero, the int64 extremes) and random
// seeds, through enough calls to cross the switch to the dense register at
// the 607th draw.
func TestNewRandMatchesStdlib(t *testing.T) {
	const m = 1<<31 - 1
	seeds := []int64{0, 1, -1, m, -m, 2 * m, 89482311, math.MaxInt64, math.MinInt64}
	pick := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		seeds = append(seeds, int64(pick.Uint64()))
	}
	mix := rand.New(rand.NewSource(7))
	for _, seed := range seeds {
		compareRand(t, seed, 3000, mix)
	}
}

// TestNewRandReseed checks that Rand.Seed restarts a NewRand stream,
// before and after the dense switch, exactly as it does math/rand's.
func TestNewRandReseed(t *testing.T) {
	got, want := NewRand(5), rand.New(rand.NewSource(5))
	for _, draws := range []int{10, 700} {
		for i := 0; i < draws; i++ {
			got.Uint64()
		}
		got.Seed(int64(draws))
		want.Seed(int64(draws))
		for i := 0; i < 1000; i++ {
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("after %d draws, reseeded: draw %d = %d, want %d", draws, i, g, w)
			}
		}
	}
}

// FuzzNewRand compares the raw streams for an arbitrary seed and length.
func FuzzNewRand(f *testing.F) {
	f.Add(int64(0), uint16(10))
	f.Add(int64(1), uint16(607))
	f.Add(int64(-1), uint16(2000))
	f.Add(int64(math.MinInt64), uint16(1300))
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		got, want := NewRand(seed), rand.New(rand.NewSource(seed))
		for i := 0; i < int(draws); i++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d draw %d: %#x, want %#x", seed, i, g, w)
			}
		}
	})
}

// BenchmarkNodeRand is one cluster node's stream at 4096 ranks: construct
// it and draw 64 times. The stdlib case is the eager math/rand source the
// simulator used before NewRand, kept as the baseline.
func BenchmarkNodeRand(b *testing.B) {
	const draws = 64
	b.Run("lazy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := NewRand(int64(i))
			for j := 0; j < draws; j++ {
				r.Float64()
			}
		}
	})
	b.Run("stdlib", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := rand.New(rand.NewSource(int64(i)))
			for j := 0; j < draws; j++ {
				r.Float64()
			}
		}
	})
}
