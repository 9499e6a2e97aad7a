package sim

import (
	"math/rand"
	"slices"
)

// NewRand returns a *rand.Rand whose stream is bit-identical to
// rand.New(rand.NewSource(seed)) but which does not pay for math/rand's
// 607-word (4.9 KB) register up front. A simulated world owns one stream
// per cluster node and per partition, and at thousands of ranks a node
// draws only a few dozen times, so eager registers would dominate the heap.
//
// The source reproduces math/rand's additive lagged-Fibonacci generator:
// draw k writes word feed(k) = register[feed] + register[tap]. Over the
// first rngLen draws every register word is the feed exactly once, so each
// draw reads one initial word — computed from the seed on demand — plus
// either another initial word (the first rngTap draws) or the output of
// draw k-rngTap, kept in a history slice that grows with the draws. At the
// rngLen-th draw the history is rearranged in place into the full register,
// with tap and feed where math/rand's would stand, and the source continues
// exactly as math/rand does. A source never holds more than one
// rngLen-word array.
func NewRand(seed int64) *rand.Rand {
	s := &lazySource{}
	s.Seed(seed)
	return rand.New(s)
}

// Parameters of math/rand's generator (math/rand/rng.go).
const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
	seedMul  = 48271 // Lehmer multiplier of math/rand's seeding chain
)

var (
	// seedPow[i] = seedMul^(21+3i) mod int32max: seeding advances its
	// Lehmer chain 20 times, then three times per register word, so word
	// i starts from chain value x(21+3i) = seedPow[i]·x(0).
	seedPow [rngLen]uint64
	// rngCooked is math/rand's unexported table of constants XORed into
	// the seeded register, recovered at init (see recoverCooked).
	rngCooked [rngLen]int64
)

func init() {
	p := uint64(1)
	for i := 0; i < 21; i++ {
		p = p * seedMul % int32max
	}
	for i := range seedPow {
		seedPow[i] = p
		p = p * seedMul % int32max * seedMul % int32max * seedMul % int32max
	}
	recoverCooked()
}

// recoverCooked reconstructs math/rand's cooked constants from the first
// rngLen outputs of a reference source. Output k (0-based) is
// word[feed] + tap, where feed = 333-k for k < 334 and 940-k after, and tap
// is the initial word 606-k for k < rngTap and output k-rngTap after. So
// outputs 334..606 give initial words 606..334, and outputs 0..333 then
// give words 333..0, outputs 273..333 reusing outputs 0..60. XORing out
// the seed's contribution leaves the constant.
func recoverCooked() {
	const seed = 1
	ref := rand.NewSource(seed).(rand.Source64)
	var out [rngLen]int64
	for k := range out {
		out[k] = int64(ref.Uint64())
	}
	var word [rngLen]int64
	for k := rngLen - rngTap; k < rngLen; k++ {
		word[2*rngLen-rngTap-1-k] = out[k] - out[k-rngTap]
	}
	for k := 0; k < rngLen-rngTap; k++ {
		tap := word[rngLen-1-k]
		if k >= rngTap {
			tap = out[k-rngTap]
		}
		word[rngLen-rngTap-1-k] = out[k] - tap
	}
	x0 := seedState(seed)
	for i := range rngCooked {
		rngCooked[i] = word[i] ^ seedWord(x0, i)
	}
}

// seedState is math/rand's normalization of a seed into the first value
// of its Lehmer chain, in [1, int32max).
func seedState(seed int64) uint64 {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	return uint64(seed)
}

// seedWord is register word i as seeded from chain start x0, before the
// cooked constant is XORed in.
func seedWord(x0 uint64, i int) int64 {
	x := seedPow[i] * x0 % int32max
	u := x << 40
	x = x * seedMul % int32max
	u ^= x << 20
	x = x * seedMul % int32max
	u ^= x
	return int64(u)
}

// lazySource is NewRand's rand.Source64. Until its rngLen-th draw hist
// holds every output so far and vec is nil; from then on vec is the dense
// register and tap/feed index it as in math/rand.
type lazySource struct {
	x0        uint64
	hist      []int64
	vec       *[rngLen]int64
	tap, feed int
}

// Seed resets the source to the stream of rand.NewSource(seed).
func (s *lazySource) Seed(seed int64) {
	*s = lazySource{x0: seedState(seed)}
}

// initial is register word i as seeding leaves it.
func (s *lazySource) initial(i int) int64 { return seedWord(s.x0, i) ^ rngCooked[i] }

func (s *lazySource) Int63() int64 { return int64(s.Uint64() & rngMask) }

func (s *lazySource) Uint64() uint64 {
	if s.vec != nil {
		s.tap--
		if s.tap < 0 {
			s.tap += rngLen
		}
		s.feed--
		if s.feed < 0 {
			s.feed += rngLen
		}
		x := s.vec[s.feed] + s.vec[s.tap]
		s.vec[s.feed] = x
		return uint64(x)
	}
	k := len(s.hist) // 0-based draw index
	feed := rngLen - rngTap - 1 - k
	if feed < 0 {
		feed += rngLen
	}
	var tap int64
	if k < rngTap {
		tap = s.initial(rngLen - 1 - k)
	} else {
		tap = s.hist[k-rngTap]
	}
	x := s.initial(feed) + tap
	if k == cap(s.hist) {
		h := make([]int64, k, min(max(2*k, 16), rngLen))
		copy(h, s.hist)
		s.hist = h
	}
	s.hist = append(s.hist, x)
	if k+1 == rngLen {
		s.densify()
	}
	return uint64(x)
}

// densify turns the full history into math/rand's register layout after
// rngLen draws: draw k (0-based) wrote word 333-k for k < 334 and 940-k
// after, so each half of the history, reversed, is the register. tap and
// feed are back at their seeded positions, 0 and rngLen-rngTap.
func (s *lazySource) densify() {
	h := s.hist
	split := rngLen - rngTap
	slices.Reverse(h[:split])
	slices.Reverse(h[split:])
	s.vec = (*[rngLen]int64)(h)
	s.hist = nil
	s.tap, s.feed = 0, split
}
