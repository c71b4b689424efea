package policy

import (
	"math/rand"
	"reflect"
	"testing"
)

// stateOf returns a copy of p without the buffers Rank reuses between
// calls, which hold no replacement state, so twin policies compare by
// state alone.
func stateOf(p Policy) any {
	switch q := p.(type) {
	case *LRU:
		c := *q
		c.rankBuf = rankBuf{}
		return c
	case *SRRIP:
		c := *q
		c.rankBuf = rankBuf{}
		return c
	case *Hawkeye:
		c := *q
		c.rankBuf = rankBuf{}
		return c
	case *MIN:
		c := *q
		c.rankBuf = rankBuf{}
		c.nextUse = nil
		return c
	}
	panic("stateOf: unsupported policy")
}

// TestVictimInMatchesRank drives twin policies through one random
// operation stream (fills, hits, evictions, invalidations and promotions)
// and after every step asks one twin for Rank(set) and the other for
// VictimIn(set, mask) with a random mask. VictimIn must return the first
// masked way of Rank's order (-1 for an empty selection) and leave the
// twins in identical states, SRRIP's aging side effect included.
func TestVictimInMatchesRank(t *testing.T) {
	stream := make([]uint64, 3000)
	srng := rand.New(rand.NewSource(3))
	for i := range stream {
		stream[i] = uint64(srng.Intn(96))
	}
	for _, tc := range []struct {
		name string
		mk   func() Policy
	}{
		{"LRU", func() Policy { return NewLRU() }},
		{"SRRIP", func() Policy { return NewSRRIP(2) }},
		{"Hawkeye", func() Policy { return NewHawkeye(2) }},
		{"MIN", func() Policy { return NewMIN(NewStreamOracle(stream)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, ways := range []int{4, 16, 64} {
				const sets = 4
				ranked, masked := tc.mk(), tc.mk()
				ranked.Init(sets, ways)
				masked.Init(sets, ways)
				mv := masked.(MaskedVictimer)
				rng := rand.New(rand.NewSource(int64(ways)))
				valid := make([]bool, sets*ways)
				for i, addr := range stream {
					set, way := rng.Intn(sets), rng.Intn(ways)
					m := Meta{PC: uint64(rng.Intn(16)) * 4, Addr: addr, Pos: uint64(i)}
					v := &valid[set*ways+way]
					switch op := rng.Intn(5); {
					case !*v && op < 3:
						ranked.OnFill(set, way, m)
						masked.OnFill(set, way, m)
						*v = true
					case *v && op < 2:
						ranked.OnHit(set, way, m)
						masked.OnHit(set, way, m)
					case *v && op == 2:
						ranked.OnEvict(set, way)
						masked.OnEvict(set, way)
						*v = false
					case *v && op == 3:
						ranked.OnInvalidate(set, way)
						masked.OnInvalidate(set, way)
						*v = false
					case op == 4:
						ranked.Promote(set, way)
						masked.Promote(set, way)
					}
					mask := rng.Uint64()
					if rng.Intn(3) == 0 {
						mask &= rng.Uint64() & rng.Uint64() // sparse, sometimes empty
					}
					want := -1
					for _, w := range ranked.Rank(set) {
						if mask>>uint(w)&1 != 0 {
							want = w
							break
						}
					}
					if got := mv.VictimIn(set, mask); got != want {
						t.Fatalf("ways %d step %d: VictimIn(%d, %#x) = %d; first masked way of Rank is %d", ways, i, set, mask, got, want)
					}
					// State divergence persists, so a periodic comparison
					// catches it while keeping Hawkeye's predictor-table
					// compare cheap.
					if i%8 == 0 && !reflect.DeepEqual(stateOf(ranked), stateOf(masked)) {
						t.Fatalf("ways %d step %d: VictimIn left a different policy state than Rank", ways, i)
					}
				}
			}
		})
	}
}

// TestMaxRRPVWaysMatchesRRPV checks the RRPVer way mask against per-way
// RRPV reads after random operations, Rank's aging and Hawkeye's
// friendly-line aging included.
func TestMaxRRPVWaysMatchesRRPV(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    interface {
			Policy
			RRPVer
		}
	}{
		{"SRRIP", NewSRRIP(2)},
		{"Hawkeye", NewHawkeye(2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const sets, ways = 4, 16
			p := tc.p
			p.Init(sets, ways)
			rng := rand.New(rand.NewSource(11))
			for i := 0; i < 5000; i++ {
				set, way := rng.Intn(sets), rng.Intn(ways)
				m := Meta{PC: uint64(rng.Intn(8)) * 4, Addr: uint64(rng.Intn(128)), Pos: uint64(i)}
				switch rng.Intn(6) {
				case 0:
					p.OnFill(set, way, m)
				case 1:
					p.OnHit(set, way, m)
				case 2:
					p.OnEvict(set, way)
				case 3:
					p.OnInvalidate(set, way)
				case 4:
					p.Promote(set, way)
				case 5:
					p.Rank(set)
				}
				var want uint64
				for w := 0; w < ways; w++ {
					if p.RRPV(set, w) == p.MaxRRPV() {
						want |= 1 << uint(w)
					}
				}
				if got := p.MaxRRPVWays(set); got != want {
					t.Fatalf("step %d: MaxRRPVWays(%d) = %#x, per-way RRPV scan gives %#x", i, set, got, want)
				}
			}
		})
	}
}
