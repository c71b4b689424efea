package policy

import "math/bits"

// Victimer is the single-victim fast path: Victim(set) returns exactly
// Rank(set)[0] — including any side effects Rank performs (SRRIP ages the
// set) — without materializing or sorting the full preference order. The
// cache substrates consult it on every replacement, which makes it the
// hottest policy entry point; the full Rank order is only needed by the
// LLC schemes that walk the preference order (QBS, SHARP, CHARonBase, the
// ZIV relocation-victim search).
type Victimer interface {
	// Victim returns the way Rank(set)[0] would return.
	Victim(set int) int
}

// Victim implements Victimer: the way with the smallest timestamp, ties
// broken by lowest way index — identical to Rank's stable ascending sort.
func (p *LRU) Victim(set int) int {
	stamp := p.stamp[set*p.ways : (set+1)*p.ways]
	best, bestStamp := 0, stamp[0]
	for w := 1; w < len(stamp); w++ {
		if s := stamp[w]; s < bestStamp {
			best, bestStamp = w, s
		}
	}
	return best
}

// Victim implements Victimer: the first unreferenced way, or way 0 when
// every way is referenced — identical to Rank's two-class order.
func (p *NRU) Victim(set int) int {
	base := set * p.ways
	for w := 0; w < p.ways; w++ {
		if !p.ref[base+w] {
			return w
		}
	}
	return 0
}

// Victim implements Victimer. The canonical SRRIP aging step is applied
// exactly as Rank does (the side effect must happen regardless of which
// entry point picks the victim); afterwards the first way at the
// distant-future RRPV is the victim, matching Rank's stable descending
// sort.
func (p *SRRIP) Victim(set int) int {
	p.age(set)
	base := set * p.ways
	for w := 0; w < p.ways; w++ {
		if p.rrpv[base+w] == p.max {
			return w
		}
	}
	return 0 // unreachable: aging guarantees a max-RRPV way
}

// Victim implements Victimer: the first way holding the set's maximum
// RRPV — identical to Rank's stable descending sort.
func (p *Hawkeye) Victim(set int) int {
	rrpv := p.rrpv[set*p.ways : (set+1)*p.ways]
	best, bestRRPV := 0, rrpv[0]
	for w := 1; w < len(rrpv); w++ {
		if r := rrpv[w]; r > bestRRPV {
			best, bestRRPV = w, r
		}
	}
	return best
}

// Victim implements Victimer: the valid way whose next use is furthest in
// the future (invalid ways query as most-imminent, exactly like Rank).
func (p *MIN) Victim(set int) int {
	base := set * p.ways
	best := 0
	var bestNU uint64
	for w := 0; w < p.ways; w++ {
		i := base + w
		var nu uint64
		if p.valid[i] {
			nu = p.oracle.NextUse(p.addr[i], p.now)
		}
		if w == 0 || nu > bestNU {
			best, bestNU = w, nu
		}
	}
	return best
}

// MaskedVictimer is the masked victim query: VictimIn(set, mask) returns
// the first way of Rank(set) whose bit is set in mask, or -1 when mask
// selects no way. It performs exactly Rank's side effects (SRRIP ages the
// set), and those are idempotent: repeated queries with no state change
// in between observe one and the same order. The LLC's QBS, SHARP,
// CHARonBase and ZIV relocation-victim searches ask it instead of sorting
// a full Rank and scanning it. Bit w selects way w; bits at or above the
// associativity are ignored.
type MaskedVictimer interface {
	// VictimIn returns the first way of Rank(set) among mask, or -1.
	//
	//ziv:noalloc
	VictimIn(set int, mask uint64) int
}

// waysMask selects ways 0..ways-1 (all 64 bits from 64 ways up).
func waysMask(ways int) uint64 { return uint64(1)<<uint(ways) - 1 }

// VictimIn implements MaskedVictimer: the masked way with the smallest
// timestamp, ties broken by lowest way index like Rank's stable sort.
func (p *LRU) VictimIn(set int, mask uint64) int {
	stamp := p.stamp[set*p.ways : (set+1)*p.ways]
	best := -1
	var bestStamp uint64
	for m := mask & waysMask(p.ways); m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m)
		if s := stamp[w]; best < 0 || s < bestStamp {
			best, bestStamp = w, s
		}
	}
	return best
}

// VictimIn implements MaskedVictimer: Rank's aging step, then the first
// masked way with the highest RRPV.
func (p *SRRIP) VictimIn(set int, mask uint64) int {
	p.age(set)
	return firstMaxIn(p.rrpv[set*p.ways:(set+1)*p.ways], mask)
}

// VictimIn implements MaskedVictimer: the first masked way with the
// highest RRPV, matching Rank's stable descending sort.
func (p *Hawkeye) VictimIn(set int, mask uint64) int {
	return firstMaxIn(p.rrpv[set*p.ways:(set+1)*p.ways], mask)
}

// firstMaxIn returns the lowest-index way among mask holding the highest
// value of vals, or -1 when mask selects no way.
func firstMaxIn(vals []int, mask uint64) int {
	best, bestVal := -1, 0
	for m := mask & waysMask(len(vals)); m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m)
		if v := vals[w]; best < 0 || v > bestVal {
			best, bestVal = w, v
		}
	}
	return best
}

// VictimIn implements MaskedVictimer: the masked way whose next use is
// furthest in the future, invalid ways querying as most-imminent exactly
// like Rank.
func (p *MIN) VictimIn(set int, mask uint64) int {
	base := set * p.ways
	best := -1
	var bestNU uint64
	for m := mask & waysMask(p.ways); m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m)
		var nu uint64
		if p.valid[base+w] {
			nu = p.oracle.NextUse(p.addr[base+w], p.now)
		}
		if best < 0 || nu > bestNU {
			best, bestNU = w, nu
		}
	}
	return best
}

var (
	_ MaskedVictimer = (*LRU)(nil)
	_ MaskedVictimer = (*SRRIP)(nil)
	_ MaskedVictimer = (*Hawkeye)(nil)
	_ MaskedVictimer = (*MIN)(nil)

	_ Victimer = (*LRU)(nil)
	_ Victimer = (*NRU)(nil)
	_ Victimer = (*SRRIP)(nil)
	_ Victimer = (*Hawkeye)(nil)
	_ Victimer = (*MIN)(nil)
)
