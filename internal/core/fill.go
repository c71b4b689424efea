package core

import (
	"fmt"

	"zivsim/internal/directory"
	"zivsim/internal/policy"
)

// Evicted describes a block that left the LLC to make room for a fill.
// Valid is false when no block was evicted. The record is embedded by value
// in FillOutcome so the per-fill hot path allocates nothing.
type Evicted struct {
	Valid bool
	Addr  uint64
	Dirty bool
	// InPrC flags that the block has live private copies: the hierarchy must
	// back-invalidate them, generating inclusion victims. Never true for a
	// ZIV LLC (the zero-inclusion-victim guarantee).
	InPrC bool
}

// Relocation describes a ZIV block relocation performed during a fill.
// Valid is false when the fill performed no relocation.
type Relocation struct {
	Valid        bool
	Addr         uint64 // relocated block's address (debug field)
	From, To     directory.Location
	Level        string // priority level that supplied the relocation set
	CrossBank    bool
	ReRelocation bool // the relocated block was already in Relocated state
	// Depth is the block's relocation-chain length after this move (1 for a
	// first relocation), feeding the observability depth histogram.
	Depth uint8
}

// FillOutcome reports everything a fill did. It is a plain value — returning
// it performs no heap allocation, which matters because every LLC miss
// constructs one.
type FillOutcome struct {
	// Loc is where the new block landed.
	Loc directory.Location
	// Evicted is the block that left the LLC (Valid=false when an invalid
	// way absorbed the fill, or when a relocation landed on an invalid way).
	Evicted Evicted
	// Relocation has Valid=true when the ZIV scheme moved a privately cached
	// victim to a relocation set.
	Relocation Relocation
	// AlternateVictim is true when the ZIV scheme avoided relocation by
	// picking a different victim within the original set (the original set
	// itself satisfied the relocation property).
	AlternateVictim bool
}

// Fill allocates addr in its home set, running the configured victim-
// selection scheme. requester is the core whose miss triggers the fill;
// dirty seeds the block's dirty bit (writeback-allocates); inPrC seeds the
// private-residency state (false only for non-inclusive writeback-allocates);
// now is the current cycle for relocation-interval statistics.
//
// The caller (hierarchy) must have verified the address misses in the LLC
// and must have already allocated/updated the sparse-directory entry for the
// requester when inPrC is true.
//
//ziv:noalloc
func (l *LLC) Fill(addr uint64, requester int, dirty, inPrC bool, m policy.Meta, now uint64) FillOutcome {
	if l.cfg.DebugChecks {
		if _, hit := l.Probe(addr); hit {
			panic(fmt.Sprintf("core: Fill of resident block %#x", addr))
		}
	}
	l.Stats.Fills++
	bk := &l.banks[l.BankOf(addr)]
	set := l.SetOf(addr)

	// The Invalid property has the highest priority in every scheme: an
	// invalid way absorbs the fill with no eviction at all.
	if w := l.invalidWay(bk, set); w >= 0 {
		l.fillWay(bk, set, w, addr, dirty, inPrC, m)
		return FillOutcome{Loc: directory.Location{Bank: bk.id, Set: set, Way: w}}
	}

	if l.cfg.Scheme == SchemeZIV {
		return l.zivFill(bk, set, addr, dirty, inPrC, m, now)
	}

	var victim int
	switch l.cfg.Scheme {
	case SchemeBaseline:
		victim = l.worstWay(bk, set)
	case SchemeQBS:
		victim = l.qbsVictim(bk, set)
	case SchemeSHARP:
		victim = l.sharpVictim(bk, set, requester)
	case SchemeCHARonBase:
		victim = l.charOnBaseVictim(bk, set)
	default:
		panic(fmt.Sprintf("core: unknown scheme %d", l.cfg.Scheme))
	}
	ev := l.evictWay(bk, set, victim)
	l.fillWay(bk, set, victim, addr, dirty, inPrC, m)
	return FillOutcome{
		Loc:     directory.Location{Bank: bk.id, Set: set, Way: victim},
		Evicted: ev,
	}
}

// qbsVictim implements query-based selection: walk the baseline preference
// order; promote privately cached candidates to MRU; the first candidate
// with no private copies is the victim. If every block is privately cached,
// the original baseline victim is evicted, generating inclusion victims.
//
// The walk asks the masked victim query for the next unvisited way in Rank
// order and records the privately cached ones; their promotions run after
// the walk, in walk order. The walk reads only the order the policy had
// when it started, so deferring the promotions leaves the final state
// exactly as promoting mid-walk did.
//
//ziv:noalloc
func (l *LLC) qbsVictim(bk *bank, set int) int {
	order := bk.rankOrder(set)
	notInPrC := bk.masks[set].notInPrC
	var promote [64]uint8
	n, victim := 0, -1
	for unvisited := l.wayMask; unvisited != 0; {
		w := bk.firstIn(set, order, unvisited)
		if notInPrC>>uint(w)&1 != 0 {
			victim = w
			break
		}
		promote[n] = uint8(w)
		n++
		unvisited &^= uint64(1) << uint(w)
	}
	for _, w := range promote[:n] {
		bk.pol.Promote(set, int(w))
		l.Stats.QBSPromotions++
	}
	if victim < 0 {
		return int(promote[0])
	}
	return victim
}

// sharpVictim implements the SHARP victim search: (1) a block with no
// private copies, (2) a block cached only in the requester's private
// hierarchy, (3) a random block.
//
//ziv:noalloc
func (l *LLC) sharpVictim(bk *bank, set, requester int) int {
	order := bk.rankOrder(set)
	if w := bk.firstIn(set, order, bk.masks[set].notInPrC); w >= 0 {
		return w
	}
	base := set * l.cfg.Ways
	for unvisited := l.wayMask; unvisited != 0; {
		w := bk.firstIn(set, order, unvisited)
		unvisited &^= uint64(1) << uint(w)
		b := &bk.blocks[base+w]
		if b.Relocated {
			continue
		}
		if e, _, ok := l.dir.Find(b.Addr); ok && e.Sharers.Count() == 1 && e.Sharers.Has(requester) {
			return w
		}
	}
	l.Stats.SHARPFallback++
	return int(l.rand() % uint64(l.cfg.Ways))
}

// charOnBaseVictim implements CHARonBase (§V-A): when the baseline victim is
// privately cached, prefer a CHAR-inferred likely-dead block from the same
// set (in baseline preference order); otherwise fall back to the baseline
// victim even though it generates inclusion victims.
//
//ziv:noalloc
func (l *LLC) charOnBaseVictim(bk *bank, set int) int {
	order := bk.rankOrder(set)
	m := &bk.masks[set]
	v0 := bk.firstIn(set, order, l.wayMask)
	if m.notInPrC>>uint(v0)&1 != 0 {
		return v0
	}
	if w := bk.firstIn(set, order, m.evictable()&m.dead); w >= 0 {
		return w
	}
	return v0
}

// fillWay installs addr at (bank, set, way), which must be invalid, and
// refreshes the set's property bits.
//
//ziv:noalloc
func (l *LLC) fillWay(bk *bank, set, way int, addr uint64, dirty, inPrC bool, m policy.Meta) {
	b := &bk.blocks[set*l.cfg.Ways+way]
	if l.cfg.DebugChecks && b.Valid {
		panic(fmt.Sprintf("core: fillWay into valid way (bank %d set %d way %d)", bk.id, set, way))
	}
	*b = Block{Valid: true, Dirty: dirty, NotInPrC: !inPrC, Addr: addr, EvictCore: -1}
	bk.tags[set*l.cfg.Ways+way] = addr
	bk.masks[set].sync(way, b)
	bk.pol.OnFill(set, way, m)
	l.updateSet(bk, set)
}

// evictWay removes the block at (bank, set, way) as a replacement decision,
// updates statistics and property bits, and returns the eviction record.
//
//ziv:noalloc
func (l *LLC) evictWay(bk *bank, set, way int) Evicted {
	b := &bk.blocks[set*l.cfg.Ways+way]
	if l.cfg.DebugChecks && !b.Valid {
		panic(fmt.Sprintf("core: evictWay of invalid way (bank %d set %d way %d)", bk.id, set, way))
	}
	ev := Evicted{Valid: true, Addr: b.Addr, Dirty: b.Dirty, InPrC: !b.NotInPrC}
	l.Stats.Evictions++
	if ev.Dirty {
		l.Stats.DirtyWritebacks++
	}
	if ev.InPrC {
		l.Stats.InPrCEvictions++
	}
	bk.pol.OnEvict(set, way)
	*b = Block{}
	bk.tags[set*l.cfg.Ways+way] = tagNone
	bk.masks[set].sync(way, b)
	l.updateSet(bk, set)
	return ev
}
