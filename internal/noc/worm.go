package noc

import (
	"fmt"

	"github.com/panic-nic/panic/internal/sim"
)

// Worm advance. Once the head flit of a message of at least wormMinFlits
// flits has entered its destination's assembly slot, the rest of the
// message is a run of identical body flits (the last one marked Tail)
// spread over the lanes of its path, every router output between them is
// held by the message, and the eject hop takes a body flit every cycle. All the routers along
// the path still do for it is move one flit per lane per cycle whenever
// the next lane has room. A worm replaces that router work with one count
// per lane (the lane's "prefix": flits held as a number ahead of any real
// entries), stepped once per cycle as an integer tandem:
//
//   - a lane passes one flit downstream when it held one at the start of
//     the cycle and the next lane's start-of-cycle count is below
//     BufferDepth; the eject hop always takes one;
//   - routers see a lane with a prefix as not ready, upstream writers
//     count the prefix in the lane's occupancy, and follower flits queue
//     behind it as real entries;
//   - when the tail leaves a lane, that lane's holder is released, exactly
//     when the router would have released it, and the freed slot is a
//     credit for the lane's upstream neighbour; each of those routers is
//     poked only when it has a ready input lane, since a router without
//     one ticks as a no-op;
//   - when the tail enters the destination lane, the remaining flits
//     become real flits again and the destination router ejects them
//     (and emits the transit span) in its own tick.
//
// Worms sleep. When no router is queued and nothing is parked, the mesh
// need not tick again until one past the first step at which some worm
// could do something visible: poke a router, or complete (wormWake). The
// steps in between are caught up lazily: wormsNext is the first cycle
// whose step has not run, Begin catches up to its cycle before anything
// else, Tick stamps it, and SyncTo and SetLinkFault catch up too, so
// Stats, audits and fingerprints read the counts of flit stepping.
//
// Per-flit link occupancy, credits, FlitHops and every observable timing
// stay exactly those of flit stepping. Worms only exist on single-VC
// meshes with no link fault installed, and never on a wake-all cycle: the
// reference stepper wakes everything every cycle, so it steps every flit
// and the determinism tests compare the two.

// wormMinFlits is the shortest message that becomes a worm. A shorter one
// has too few body flits left to repay converting and stepping it with
// the router ticks its worm saves: on nic-min-frames, whose mesh messages
// are 2 to 5 flits long, 4-flit worms advanced 2.7 flit hops each.
const wormMinFlits = 5

// arrival is the head flit of a message of flits flits that entered
// router d's assembly slot this cycle.
type arrival struct {
	d     *router
	flits int
}

// worm is one message advancing as per-lane counts.
type worm struct {
	dst NodeID
	// lanes runs from the destination's input lane (index 0) upstream to
	// the lane holding the tail flit (last). Each lane's count is its
	// router's prefix.
	lanes []wormLane
}

// wormLane names one input lane of a single-VC mesh: input port p of
// router r, where portLocal is r's injector.
type wormLane struct {
	r *router
	p int
}

// newWorm takes a worm record from the free list, or makes one sized for
// the longest XY path.
func (m *Mesh) newWorm(dst NodeID) *worm {
	var w *worm
	if n := len(m.freeWorms); n > 0 {
		w = m.freeWorms[n-1]
		m.freeWorms = m.freeWorms[:n-1]
	} else {
		w = &worm{lanes: make([]wormLane, 0, m.cfg.Width+m.cfg.Height)}
	}
	w.dst = dst
	w.lanes = w.lanes[:0]
	return w
}

// tryConvert turns the arrived message into a worm. It runs in Commit,
// after every lane committed. It walks the holder chain back from the
// destination, taking the message's flits out of each lane, and stops at
// the lane holding the tail or at the source injector. A message whose
// tail already sits in the destination's input lane is left to the
// destination router: the worm would save nothing.
func (m *Mesh) tryConvert(a arrival) {
	d := a.d
	remaining := a.flits - 1
	var w *worm
	r, p := d, d.holder[portLocal][0]
	for {
		if r.prefix[p] != 0 {
			panic(fmt.Sprintf("noc: router %d lane %d already carries a worm", r.id, p))
		}
		n := remaining
		if p == portLocal {
			if l := &r.inj.lanes[0]; !l.valid || l.cur.flits-l.sent != remaining {
				panic(fmt.Sprintf("noc: injector %d holds %d flits of a message with %d left", r.id, l.cur.flits-l.sent, remaining))
			}
		} else if q := r.in[p][0]; q.Len() < n {
			n = q.Len()
		} else if !q.PeekAt(n - 1).Tail {
			panic(fmt.Sprintf("noc: router %d lane %d: flit %d of a worm is not its tail", r.id, p, n-1))
		}
		if w == nil {
			if n == remaining {
				return // the tail is already in the destination lane
			}
			w = m.newWorm(d.id)
		}
		if p != portLocal && n > 0 {
			q := r.in[p][0]
			for i := 0; i < n; i++ {
				q.Pop()
			}
			q.Commit()
			*q.DirtyFlag() = false
		}
		w.lanes = append(w.lanes, wormLane{r, p})
		r.prefix[p] = n
		remaining -= n
		if remaining == 0 {
			break
		}
		up := r.neighbor[p]
		r, p = up, up.holder[oppositePort[p]][0]
	}
	m.worms = append(m.worms, w)
}

// stepWorms advances every worm by one cycle. It runs at the end of Tick,
// after every router ticked, so the routers decided on start-of-cycle
// counts. Worms never share a lane, so their order does not matter.
func (m *Mesh) stepWorms() {
	for i := 0; i < len(m.worms); {
		if w := m.worms[i]; m.stepWorm(w) {
			last := len(m.worms) - 1
			m.worms[i], m.worms[last] = m.worms[last], nil
			m.worms = m.worms[:last]
			m.freeWorms = append(m.freeWorms, w)
			continue
		}
		i++
	}
}

// stepWorm moves w's flits one cycle and reports whether w is done: its
// tail entered the destination lane, where the remaining flits became real
// flits for the destination router to eject.
func (m *Mesh) stepWorm(w *worm) bool {
	depth := m.cfg.BufferDepth
	last := len(w.lanes) - 1
	dl := w.lanes[0]
	// down is the start-of-cycle count of the lane below the one being
	// stepped; lanes are visited downstream first.
	down := dl.r.prefix[dl.p]
	if down > 0 {
		dl.r.prefix[dl.p]-- // the eject hop takes a body flit
	}
	for i := 1; i <= last; i++ {
		l := w.lanes[i]
		n := l.r.prefix[l.p]
		if n > 0 && down < depth {
			l.r.prefix[l.p] = n - 1
			next := w.lanes[i-1]
			next.r.prefix[next.p]++
			l.r.stats.flitHops++
			m.work.WormHops++
			if i == last {
				w.popTail(l, oppositePort[next.p], n == 1)
			}
		}
		down = n
	}
	if len(w.lanes) > 1 {
		return false
	}
	q := dl.r.in[dl.p][0]
	track(&m.dirtyFlit, q)
	pushBody(q, w.dst, dl.r.prefix[dl.p], true)
	dl.r.prefix[dl.p] = 0
	dl.r.poke()
	return true
}

// popTail does the bookkeeping of a flit leaving w's tail lane l through
// output o of l's router: the freed slot is a credit for a follower
// upstream, and when the flit was the tail, the lane leaves the worm, its
// holder is released and its router may serve the followers. Either
// router is poked only when it has a ready input to serve.
func (w *worm) popTail(l wormLane, o int, tail bool) {
	if l.p != portLocal {
		if up := l.r.neighbor[l.p]; up.hasReadyInput() {
			up.poke()
		}
	}
	if !tail {
		return
	}
	if l.p == portLocal {
		il := &l.r.inj.lanes[0]
		il.sent, il.valid = il.cur.flits, false
	}
	l.r.holder[o][0] = -1
	if l.r.hasReadyInput() {
		l.r.poke()
	}
	w.lanes = w.lanes[:len(w.lanes)-1]
}

// catchUpWorms runs the worm steps of the cycles before end that have not
// run. It runs between cycles, when every lane is committed, and commits
// the flits a worm completing in the last of them writes back, so the
// routers that tick next see them.
func (m *Mesh) catchUpWorms(end uint64) {
	if m.wormsNext >= end {
		return
	}
	if len(m.worms) > 0 {
		for c := m.wormsNext; c < end && len(m.worms) > 0; c++ {
			m.stepWorms()
		}
		m.dirtyFlit = commitLanes(m.dirtyFlit)
	}
	m.wormsNext = end
}

// wormWake returns the cycle at which the mesh must tick again for its
// worms, given that the step of cycle has run: one past the first step at
// which any worm could poke a router or complete. The steps before it are
// invisible, and the visible one is caught up by Begin just before the
// routers it pokes tick.
func (m *Mesh) wormWake(cycle uint64) uint64 {
	quiet := m.worms[0].quiet()
	for _, w := range m.worms[1:] {
		quiet = min(quiet, w.quiet())
	}
	return cycle + 1 + uint64(quiet)
}

// quiet returns d >= 1 such that w's next d-1 steps are invisible. Each
// step moves at most one flit out of a lane, so:
//
//   - while the tail sits in the source injector, the injector's count of
//     steps must pass before the tail leaves it, the one visible event
//     there (no credit goes upstream of an injector, and the worm cannot
//     complete);
//   - while no router that the tail's progress could poke holds a real
//     entry — the routers of lanes 2 to last and the tail lane's upstream
//     neighbour —, pokes stay suppressed until the worm completes, which
//     takes at least the sum of the counts of lanes 1 to last.
func (w *worm) quiet() int {
	last := len(w.lanes) - 1
	tl := w.lanes[last]
	d := 1
	if tl.p == portLocal {
		d = tl.r.prefix[portLocal]
	} else if tl.r.neighbor[tl.p].holdsEntry() {
		return d
	}
	sum := 0
	for i := last; i >= 1; i-- {
		l := w.lanes[i]
		if i >= 2 && l.r.holdsEntry() {
			return d
		}
		sum += l.r.prefix[l.p]
	}
	return max(d, sum)
}

// pushBody pushes n body flits bound for dst, the last one marked Tail
// when tail is set.
func pushBody(q *sim.FIFO[Flit], dst NodeID, n int, tail bool) {
	for i := 0; i < n; i++ {
		q.Push(Flit{Dst: dst, Tail: tail && i == n-1})
	}
}

// materializeWorms writes every worm back into its lanes as real flits,
// ahead of any followers, and pokes every router on its path. It runs
// between cycles (on a wake-all cycle's Begin, and before a link fault is
// installed), when every lane is committed, and commits what it writes.
func (m *Mesh) materializeWorms() {
	for _, w := range m.worms {
		last := len(w.lanes) - 1
		for i, l := range w.lanes {
			n := l.r.prefix[l.p]
			l.r.prefix[l.p] = 0
			l.r.poke()
			if l.p == portLocal {
				l.r.inj.lanes[0].sent = l.r.inj.lanes[0].cur.flits - n
				continue
			}
			q := l.r.in[l.p][0]
			if *q.DirtyFlag() {
				panic("noc: worm materialized mid-cycle")
			}
			followers := m.followers[:0]
			for q.CanPop() {
				followers = append(followers, q.Pop())
			}
			q.Commit()
			pushBody(q, w.dst, n, i == last)
			for _, f := range followers {
				q.Push(f)
			}
			q.Commit()
			*q.DirtyFlag() = false
		}
		m.freeWorms = append(m.freeWorms, w)
	}
	clear(m.worms)
	m.worms = m.worms[:0]
}
