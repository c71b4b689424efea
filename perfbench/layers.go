package main

import (
	"fmt"
	"math/bits"
	"time"

	"zivsim/internal/cache"
	"zivsim/internal/core"
	"zivsim/internal/directory"
	"zivsim/internal/hierarchy"
	"zivsim/internal/policy"
	"zivsim/internal/trace"
)

// layerTimes accumulates host time and operation counts per simulator
// layer over the layer replays of a run.
type layerTimes struct {
	traceNS, traceOps float64
	cacheNS, cacheOps float64
	rankNS, rankOps   float64
	dirNS, dirOps     float64
	fillNS, fillOps   float64
}

// report stores ns-per-operation figures into layers.
func (lt *layerTimes) report(layers map[string]float64) {
	layers["trace.next_ns"] = ratio(lt.traceNS, lt.traceOps)
	layers["cache.access_ns"] = ratio(lt.cacheNS, lt.cacheOps)
	layers["policy.rank_ns"] = ratio(lt.rankNS, lt.rankOps)
	layers["directory.op_ns"] = ratio(lt.dirNS, lt.dirOps)
	layers["core.fill_ns"] = ratio(lt.fillNS, lt.fillOps)
}

// below is one event the private L2s send below themselves: a miss
// (notice false) or the eviction notice of a block leaving a core.
type below struct {
	core   int
	addr   uint64
	pc     uint64
	pos    uint64
	write  bool
	dirty  bool
	notice bool
}

// timerCost is the mean measured length of an empty time.Now/time.Since
// pair, subtracted from per-call timings.
var timerCost = func() float64 {
	const n = 20000
	var d time.Duration
	for i := 0; i < n; i++ {
		t := time.Now()
		d += time.Since(t)
	}
	return float64(d.Nanoseconds()) / n
}()

// replayLayers replays one job's own reference stream through each
// simulator layer's public API alone, on the job's machine configuration,
// and adds the host time per operation to lt:
//
//   - trace: Generator.Next for every reference of every core;
//   - cache: Cache.Access, plus Fill on a miss, on one L2-geometry cache
//     per core (their misses and evictions form the stream below the L2s);
//   - directory: Find/Allocate/Free over that stream on the machine's
//     directory configuration;
//   - core: LLC.Probe + LLC.Fill for every LLC miss of that stream on the
//     machine's LLC configuration, with a directory kept consistent so ZIV
//     relocations run as in the machine;
//   - policy: Rank and Victim of the job's LLC policy at every replacement
//     in per-bank LLC-geometry caches.
func replayLayers(j *simJob, tr *tracer, lt *layerTimes) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	op := j.label
	root := tr.begin("replay", "layer-replay", op, 0)
	defer tr.end(root)
	n := j.warmup + j.measure
	cores := j.cfg.Cores

	s := tr.begin("replay", "trace.Next", op, root)
	gens := j.gens()
	refs := make([][]trace.Ref, cores)
	for c := range refs {
		refs[c] = make([]trace.Ref, n)
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		for c := 0; c < cores; c++ {
			refs[c][i] = gens[c].Next()
		}
	}
	lt.traceNS += float64(time.Since(t0).Nanoseconds())
	lt.traceOps += float64(n * cores)
	tr.end(s)

	s = tr.begin("replay", "cache.Access+Fill", op, root)
	l2Sets := j.cfg.L2Bytes / cache.BlockBytes / j.cfg.L2Ways
	newL2s := func() []*cache.Cache {
		l2 := make([]*cache.Cache, cores)
		for c := range l2 {
			l2[c] = cache.New(fmt.Sprintf("l2.%d", c), l2Sets, j.cfg.L2Ways, 0, policy.NewLRU())
		}
		return l2
	}
	l2 := newL2s()
	t0 = time.Now()
	for i := 0; i < n; i++ {
		for c := 0; c < cores; c++ {
			r := refs[c][i]
			blk := cache.BlockAddr(r.Addr)
			m := policy.Meta{PC: r.PC, Addr: blk, Pos: uint64(i*cores + c)}
			if _, hit := l2[c].Access(blk, r.Write, m); !hit {
				l2[c].Fill(blk, r.Write, true, m)
			}
		}
	}
	lt.cacheNS += float64(time.Since(t0).Nanoseconds())
	lt.cacheOps += float64(n * cores)
	tr.end(s)

	// The same pass again, untimed, recording the stream below the L2s.
	l2 = newL2s()
	var stream []below
	for i := 0; i < n; i++ {
		for c := 0; c < cores; c++ {
			r := refs[c][i]
			blk := cache.BlockAddr(r.Addr)
			pos := uint64(i*cores + c)
			m := policy.Meta{PC: r.PC, Addr: blk, Pos: pos}
			if _, hit := l2[c].Access(blk, r.Write, m); hit {
				continue
			}
			stream = append(stream, below{core: c, addr: blk, pc: r.PC, pos: pos, write: r.Write})
			if v := l2[c].Fill(blk, r.Write, true, m); v.Valid {
				stream = append(stream, below{core: c, addr: v.Addr, dirty: v.Dirty, notice: true})
			}
		}
	}

	// The machine's own LLC and directory configurations. The replay sends
	// no CHAR inferences, so it needs no threshold controllers.
	mach := hierarchy.New(j.cfg, j.gens(), j.warmup, j.measure)
	llcCfg := mach.LLC().Config()
	llcCfg.Thresholders = nil
	dirCfg := mach.Directory().Config()

	s = tr.begin("replay", "directory.Find/Allocate/Free", op, root)
	d := directory.New(dirCfg)
	var dirOps float64
	t0 = time.Now()
	for _, ev := range stream {
		e, p, ok := d.Find(ev.addr)
		dirOps++
		switch {
		case ev.notice && ok:
			e.Sharers.Clear(ev.core)
			if e.Sharers.Count() == 0 {
				d.Free(p)
				dirOps++
			}
		case !ev.notice && ok:
			e.Sharers.Set(ev.core)
		case !ev.notice:
			d.Allocate(ev.addr, ev.core, stateFor(ev.write))
			dirOps++
		}
	}
	lt.dirNS += float64(time.Since(t0).Nanoseconds())
	lt.dirOps += dirOps
	tr.end(s)

	s = tr.begin("replay", "LLC.Probe+Fill", op, root)
	fillNS, fills := replayLLC(llcCfg, dirCfg, j.cfg.Mode == hierarchy.Inclusive, stream)
	lt.fillNS += fillNS
	lt.fillOps += fills
	tr.end(s)

	s = tr.begin("replay", "policy.Rank+Victim", op, root)
	rankNS, ranks := replayPolicy(llcCfg, stream)
	lt.rankNS += rankNS
	lt.rankOps += ranks
	tr.end(s)
	return nil
}

func stateFor(write bool) directory.State {
	if write {
		return directory.Modified
	}
	return directory.Exclusive
}

// replayLLC drives an LLC and its directory with the stream below the
// L2s, keeping private residency consistent the way the machine does:
// misses allocate or join directory entries and fill the LLC with the
// block privately cached; the last notice of a block frees its entry and
// marks the LLC copy not-in-private-caches (or retires a relocated copy);
// directory conflicts and inclusive evictions of privately cached blocks
// drop the entry. It returns the host time of the Probe+Fill calls of
// LLC misses, less the timer's own cost, and their count.
func replayLLC(llcCfg core.Config, dirCfg directory.Config, inclusive bool, stream []below) (ns, fills float64) {
	d := directory.New(dirCfg)
	llc := core.New(llcCfg, d)
	dropEntry := func(ev directory.Entry) {
		if !ev.Valid {
			return
		}
		if ev.Relocated {
			llc.InvalidateRelocated(ev.Loc)
			return
		}
		llc.MarkNotInPrC(ev.Addr, false, false, 0, -1)
	}
	var timed time.Duration
	for _, ev := range stream {
		e, p, found := d.Find(ev.addr)
		if ev.notice {
			if !found {
				continue
			}
			e.Sharers.Clear(ev.core)
			if e.Sharers.Count() > 0 {
				continue
			}
			loc, relocated := e.Loc, e.Relocated
			d.Free(p)
			if relocated {
				llc.InvalidateRelocated(loc)
			} else {
				llc.MarkNotInPrC(ev.addr, ev.dirty, false, 0, ev.core)
			}
			continue
		}
		meta := policy.Meta{PC: ev.pc, Addr: ev.addr, Pos: ev.pos}
		if found && e.Relocated {
			llc.AccessRelocated(e.Loc, meta)
			e.Sharers.Set(ev.core)
			continue
		}
		t0 := time.Now()
		_, hit := llc.Probe(ev.addr)
		probe := time.Since(t0)
		if found {
			e.Sharers.Set(ev.core)
		} else {
			_, evicted, _ := d.Allocate(ev.addr, ev.core, stateFor(ev.write))
			dropEntry(evicted)
		}
		if hit {
			llc.Access(ev.addr, meta)
			continue
		}
		t0 = time.Now()
		out := llc.Fill(ev.addr, ev.core, false, true, meta, ev.pos)
		timed += probe + time.Since(t0)
		fills++
		if ev := out.Evicted; ev.Valid && ev.InPrC && inclusive {
			if _, p, ok := d.Find(ev.Addr); ok {
				d.Free(p)
			}
		}
	}
	return float64(timed.Nanoseconds()) - 2*timerCost*fills, fills
}

// rankBurst is how many Rank+Victim pairs one timing covers, so the timer's
// own cost is a small share of each measurement.
const rankBurst = 4

// replayPolicy drives one LLC-geometry cache per bank, holding the job's
// LLC policy, with the misses below the L2s, and times Rank and Victim at
// every replacement. It returns the host time per Rank+Victim pair, less
// the timer's cost, summed, and the number of pairs.
func replayPolicy(lc core.Config, stream []below) (ns, pairs float64) {
	banks := make([]*cache.Cache, lc.Banks)
	for b := range banks {
		banks[b] = cache.New(fmt.Sprintf("llc.%d", b), lc.SetsPerBank, lc.Ways, bits.TrailingZeros(uint(lc.Banks)), lc.NewPolicy())
	}
	var timed time.Duration
	for _, ev := range stream {
		if ev.notice {
			continue
		}
		c := banks[ev.addr&uint64(lc.Banks-1)]
		meta := policy.Meta{PC: ev.pc, Addr: ev.addr, Pos: ev.pos}
		if _, hit := c.Access(ev.addr, false, meta); hit {
			continue
		}
		set := c.SetIndex(ev.addr)
		if c.InvalidWay(set) < 0 {
			pol := c.Policy()
			v := pol.(policy.Victimer)
			t0 := time.Now()
			for k := 0; k < rankBurst; k++ {
				pol.Rank(set)
				v.Victim(set)
			}
			timed += time.Since(t0)
			pairs += rankBurst
		}
		c.Fill(ev.addr, false, true, meta)
	}
	return float64(timed.Nanoseconds()) - timerCost*pairs/rankBurst, pairs
}
