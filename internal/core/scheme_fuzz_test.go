package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"zivsim/internal/directory"
	"zivsim/internal/policy"
)

// TestAllSchemesModelProperty fuzzes every victim-selection scheme through
// the miniature-hierarchy driver and validates the shared invariants:
// the LLC never exceeds capacity, duplicate tags never appear, the
// directory/LLC residency bits agree, and inclusion holds for every
// privately cached block.
func TestAllSchemesModelProperty(t *testing.T) {
	combos := schemeCombos()
	f := func(seed int64, pick uint8) bool {
		c := combos[int(pick)%len(combos)]
		llc, dir := mkLLC(t, c.scheme, c.prop, c.pol)
		d := newDriver(t, llc, dir, 12)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 1200; i++ {
			coreID := rng.Intn(4)
			addr := uint64(rng.Intn(100))
			d.access(coreID, addr, uint64(rng.Intn(8))*4)
			if rng.Intn(4) == 0 {
				d.dropPrivate(coreID, addr)
			}
		}
		if err := llc.CheckInvariants(); err != nil {
			t.Logf("scheme %v prop %v: %v", c.scheme, c.prop, err)
			return false
		}
		if llc.ValidCount() > 2*8*4 {
			return false
		}
		if c.scheme == SchemeZIV && d.inclusionVictims != 0 {
			t.Logf("ZIV %v produced %d inclusion victims", c.prop, d.inclusionVictims)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 24}); err != nil {
		t.Fatal(err)
	}
}

// TestSchemeVictimQualityOrdering: under identical pressure, the schemes
// that avoid privately cached victims (QBS, SHARP, CHARonBase, ZIV) must
// generate no more inclusion victims than the baseline.
func TestSchemeVictimQualityOrdering(t *testing.T) {
	run := func(scheme Scheme, prop Property) int {
		llc, dir := mkLLC(t, scheme, prop, lruPol)
		d := newDriver(t, llc, dir, 12)
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < 2500; i++ {
			coreID := rng.Intn(4)
			addr := uint64(rng.Intn(90))
			d.access(coreID, addr, 4)
			if rng.Intn(5) == 0 {
				d.dropPrivate(coreID, addr)
			}
		}
		_ = llc
		return d.inclusionVictims
	}
	base := run(SchemeBaseline, PropNone)
	if base == 0 {
		t.Skip("baseline produced no inclusion victims; pressure too low")
	}
	for _, tc := range []struct {
		name   string
		scheme Scheme
		prop   Property
	}{
		{"QBS", SchemeQBS, PropNone},
		{"SHARP", SchemeSHARP, PropNone},
		{"CHARonBase", SchemeCHARonBase, PropNone},
		{"ZIV", SchemeZIV, PropNotInPrC},
	} {
		got := run(tc.scheme, tc.prop)
		if got > base {
			t.Errorf("%s inclusion victims (%d) exceed baseline (%d)", tc.name, got, base)
		}
		if tc.scheme == SchemeZIV && got != 0 {
			t.Errorf("ZIV inclusion victims = %d, want 0", got)
		}
	}
}

// TestQBSOnHawkeyePromotions: QBS composed with Hawkeye must promote via
// RRPV without touching the predictor (the paper notes QBS composes with
// any policy).
func TestQBSOnHawkeyePromotions(t *testing.T) {
	llc, dir := mkLLC(t, SchemeQBS, PropNone, hawkeyePol)
	d := newDriver(t, llc, dir, 32)
	addrs := conflictAddrs(6)
	for _, a := range addrs[:4] {
		d.access(0, a, 4)
	}
	d.access(0, addrs[4], 4) // all private: QBS promotes then falls back
	if llc.Stats.QBSPromotions == 0 {
		t.Fatal("QBS on Hawkeye never promoted")
	}
	d.check()
}

// TestInPrCEvictionAccounting: the InPrCEvictions counter must equal the
// number of back-invalidation events the driver observed.
func TestInPrCEvictionAccounting(t *testing.T) {
	llc, dir := mkLLC(t, SchemeBaseline, PropNone, lruPol)
	d := newDriver(t, llc, dir, 16)
	rng := rand.New(rand.NewSource(5))
	backInvalEvents := 0
	for i := 0; i < 2000; i++ {
		coreID := rng.Intn(2)
		addr := uint64(rng.Intn(80))
		before := llc.Stats.InPrCEvictions
		d.access(coreID, addr, 4)
		if llc.Stats.InPrCEvictions > before {
			backInvalEvents += int(llc.Stats.InPrCEvictions - before)
		}
	}
	if uint64(backInvalEvents) != llc.Stats.InPrCEvictions {
		t.Fatalf("accounting drift: %d observed vs %d counted", backInvalEvents, llc.Stats.InPrCEvictions)
	}
}

// hideVictimIn shadows a policy's VictimIn: embedded beside the policy at
// the same depth, it makes the selector ambiguous, so the wrapper keeps
// every other method but no longer implements policy.MaskedVictimer.
type hideVictimIn struct{}

func (hideVictimIn) VictimIn() {}

type rankOnlyLRU struct {
	*policy.LRU
	hideVictimIn
}

type rankOnlyHawkeye struct {
	*policy.Hawkeye
	hideVictimIn
}

type rankOnlySRRIP struct {
	*policy.SRRIP
	hideVictimIn
}

func srripPol() policy.Policy { return policy.NewSRRIP(2) }

// TestMaskedSearchesMatchRankFallback runs every scheme combination, plus
// SRRIP ones whose Rank ages the set, twice on one op stream: once with the
// policy's masked victim query and once with the query hidden, so the LLC
// takes its Rank-then-scan fallback. The two runs must end with identical
// statistics, LLC contents and inclusion victims.
func TestMaskedSearchesMatchRankFallback(t *testing.T) {
	rankOnly := map[string]func() policy.Policy{
		"LRU":     func() policy.Policy { return rankOnlyLRU{LRU: policy.NewLRU()} },
		"Hawkeye": func() policy.Policy { return rankOnlyHawkeye{Hawkeye: policy.NewHawkeye(2)} },
		"SRRIP":   func() policy.Policy { return rankOnlySRRIP{SRRIP: policy.NewSRRIP(2)} },
	}
	type result struct {
		stats   Stats
		blocks  map[uint64]Block
		victims int
	}
	run := func(c schemeCombo, pol func() policy.Policy, seed int64) result {
		llc, dir := mkLLC(t, c.scheme, c.prop, pol)
		if _, masked := llc.banks[0].pol.(policy.MaskedVictimer); masked != (llc.banks[0].mvic != nil) {
			t.Fatal("mvic does not reflect the policy's capability")
		}
		d := newDriver(t, llc, dir, 12)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 1500; i++ {
			coreID := rng.Intn(4)
			addr := uint64(rng.Intn(100))
			d.access(coreID, addr, uint64(rng.Intn(8))*4)
			if rng.Intn(4) == 0 {
				d.dropPrivate(coreID, addr)
			}
		}
		r := result{stats: llc.Stats, blocks: map[uint64]Block{}, victims: d.inclusionVictims}
		llc.ForEachValid(func(_ directory.Location, b Block) { r.blocks[b.Addr] = b })
		return r
	}
	for _, name := range []string{"LRU", "Hawkeye", "SRRIP"} {
		if _, ok := rankOnly[name]().(policy.MaskedVictimer); ok {
			t.Fatalf("rank-only %s still exposes VictimIn", name)
		}
	}
	combos := append(schemeCombos(),
		schemeCombo{SchemeQBS, PropNone, srripPol},
		schemeCombo{SchemeSHARP, PropNone, srripPol},
		schemeCombo{SchemeCHARonBase, PropNone, srripPol},
		schemeCombo{SchemeZIV, PropMaxRRPVNotInPrC, srripPol},
		schemeCombo{SchemeZIV, PropMaxRRPVLikelyDead, srripPol},
	)
	for _, c := range combos {
		name := c.pol().Name()
		for seed := int64(1); seed <= 3; seed++ {
			fast := run(c, c.pol, seed)
			slow := run(c, rankOnly[name], seed)
			if !reflect.DeepEqual(fast, slow) {
				t.Errorf("scheme %v prop %v %s seed %d: masked searches diverge from the Rank fallback\nmasked: %+v\nrank:   %+v",
					c.scheme, c.prop, name, seed, fast.stats, slow.stats)
			}
		}
	}
}
