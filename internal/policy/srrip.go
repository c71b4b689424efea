package policy

// SRRIP implements static re-reference interval prediction (Jaleel et al.,
// ISCA 2010) with configurable RRPV width. Fills insert at long re-reference
// (max-1), hits promote to 0, and victim selection ages the set until some
// block reaches the distant-future value.
type SRRIP struct {
	rankBuf
	sets, ways int
	bits       int
	max        int
	rrpv       []int
}

// NewSRRIP returns an SRRIP policy with the given RRPV width in bits
// (2 is the paper-standard configuration).
func NewSRRIP(bits int) *SRRIP {
	if bits < 1 {
		bits = 2
	}
	return &SRRIP{bits: bits, max: (1 << bits) - 1}
}

// Name implements Policy.
func (p *SRRIP) Name() string { return "SRRIP" }

// Init implements Policy.
func (p *SRRIP) Init(sets, ways int) {
	p.sets, p.ways = sets, ways
	p.rrpv = make([]int, sets*ways)
	for i := range p.rrpv {
		p.rrpv[i] = p.max
	}
	p.grow(ways)
}

// OnHit implements Policy: promote to near-immediate re-reference.
func (p *SRRIP) OnHit(set, way int, _ Meta) { p.rrpv[set*p.ways+way] = 0 }

// OnFill implements Policy: insert with long re-reference interval.
func (p *SRRIP) OnFill(set, way int, _ Meta) { p.rrpv[set*p.ways+way] = p.max - 1 }

// OnEvict implements Policy.
func (p *SRRIP) OnEvict(set, way int) { p.rrpv[set*p.ways+way] = p.max }

// OnInvalidate implements Policy.
func (p *SRRIP) OnInvalidate(set, way int) { p.rrpv[set*p.ways+way] = p.max }

// Rank implements Policy: descending RRPV (ties broken by way index). The
// aging step of the canonical algorithm (incrementing all RRPVs until one
// reaches max) is applied as a side effect so that subsequent fills observe
// the aged state, matching hardware behaviour.
func (p *SRRIP) Rank(set int) []int {
	p.age(set)
	base := set * p.ways
	out := p.take(p.ways)
	for w := 0; w < p.ways; w++ {
		out[w] = w
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && p.rrpv[base+out[j]] > p.rrpv[base+out[j-1]]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// age applies the canonical aging step: every RRPV of the set rises by
// the same amount until at least one way is at max RRPV. A set that
// already has a max-RRPV way is left as is, so repeating it is a no-op.
func (p *SRRIP) age(set int) {
	rrpv := p.rrpv[set*p.ways : (set+1)*p.ways]
	maxSeen := 0
	for _, r := range rrpv {
		if r > maxSeen {
			maxSeen = r
		}
	}
	if delta := p.max - maxSeen; delta > 0 {
		for w := range rrpv {
			rrpv[w] += delta
		}
	}
}

// RRPV implements RRPVer.
func (p *SRRIP) RRPV(set, way int) int { return p.rrpv[set*p.ways+way] }

// MaxRRPV implements RRPVer.
func (p *SRRIP) MaxRRPV() int { return p.max }

// MaxRRPVWays implements RRPVer.
func (p *SRRIP) MaxRRPVWays(set int) uint64 {
	var m uint64
	for w, r := range p.rrpv[set*p.ways : (set+1)*p.ways] {
		if r == p.max {
			m |= uint64(1) << uint(w)
		}
	}
	return m
}

var (
	_ Policy = (*SRRIP)(nil)
	_ RRPVer = (*SRRIP)(nil)
)

// Promote implements Policy: set near-immediate re-reference.
func (p *SRRIP) Promote(set, way int) { p.rrpv[set*p.ways+way] = 0 }
