package noc

import (
	"fmt"

	"github.com/panic-nic/panic/internal/packet"
	"github.com/panic-nic/panic/internal/sim"
)

// Worm advance. A message of at least wormMinFlits flits is its head flit
// followed by a run of identical body flits (the last one marked Tail).
// Once the head has left the source injector, every router output between
// the head and the tail is held by the message, and all those routers
// still do for its body is move one flit per lane per cycle whenever the
// next lane has room. A worm replaces that router work with one count per
// lane (the lane's "prefix": flits held as a number ahead of any real
// entries), stepped once per cycle as an integer tandem, while the head
// stays a real flit that the routers route and allocate outputs for:
//
//   - birth: when the head leaves the source injector, the injector lane
//     becomes the worm's only lane, with the injector's remaining flits as
//     its count. A head that leaves a lane holding its own tail, where an
//     earlier worm of the message ended, gives birth the same way, with
//     that lane's flits up to the tail as its count;
//   - growth: each time the head leaves a lane, that lane joins the worm
//     as its new lane 0, and its real entries, all body flits of the
//     message, become its count; once the head has entered its
//     destination's assembly slot, the worm is eject-fed;
//   - a lane passes one flit downstream when it held one at the start of
//     the cycle and the next lane's start-of-cycle occupancy is below
//     BufferDepth. Lane 0 passes real body flits into the head's lane,
//     whose occupancy is its real entries plus any other worm's prefix;
//     once the worm is eject-fed, the eject hop always takes one;
//   - routers see a lane with a prefix as not ready, upstream writers
//     count the prefix in the lane's occupancy, and follower flits queue
//     behind it as real entries;
//   - when the tail leaves a lane, that lane's holder is released, exactly
//     when the router would have released it, and the freed slot is a
//     credit for the lane's upstream neighbour; each of those routers is
//     poked only when it has a ready input lane, since a router without
//     one ticks as a no-op. A body flit pushed behind the head needs no
//     poke: the head's router decides on its lane's front only;
//   - the worm ends when its tail enters the head's lane or, eject-fed,
//     the destination lane: the remaining flits are real flits again, and
//     the routers forward and eject them (and emit the transit span) in
//     their own ticks.
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
// meshes with no link fault installed, and never under the reference
// stepper, which steps every flit; the determinism tests compare the two.

// wormMinFlits is the shortest message that becomes a worm. A shorter one
// has too few body flits left to repay converting and stepping it with
// the router ticks its worm saves: on nic-min-frames, whose mesh messages
// are 2 to 5 flits long, 4-flit worms advanced 2.7 flit hops each.
const wormMinFlits = 5

// headHop is the head flit of a message of at least wormMinFlits flits,
// bound for dst, that left input lane p of router r through output o this
// cycle: a worm's birth or growth, which Commit applies.
type headHop struct {
	r    *router
	p, o int
	msg  *packet.Message
	dst  NodeID
}

// worm is one message advancing as per-lane counts.
type worm struct {
	dst NodeID
	// msg tells the worm's head from an earlier message's flits ahead of
	// it in the head's lane, that message's own head included.
	msg *packet.Message
	// head is the input lane holding the head flit as a real entry; its r
	// is nil once the head has entered the destination's assembly slot.
	head wormLane
	// lanes runs from the lane the head left last (index 0) upstream to
	// the lane holding the tail flit (last). Each lane's count is its
	// router's prefix. lanes is a window on buf with room in front, so a
	// lane joins in O(1); a worm gains one lane per hop, at most
	// Width+Height-1 over its path.
	lanes []wormLane
	buf   []wormLane
	// feed is whether lane 0 may pass a flit into the head's lane this
	// cycle, decided on start-of-cycle counts before any worm steps.
	feed bool
}

// wormLane names one input lane of a single-VC mesh: input port p of
// router r, where portLocal is r's injector.
type wormLane struct {
	r *router
	p int
}

// newWorm takes a worm record from the free list, or makes one sized for
// the longest XY path, for the message of h.
func (m *Mesh) newWorm(h headHop) *worm {
	var w *worm
	if n := len(m.freeWorms); n > 0 {
		w = m.freeWorms[n-1]
		m.freeWorms = m.freeWorms[:n-1]
	} else {
		w = &worm{buf: make([]wormLane, m.cfg.Width+m.cfg.Height)}
	}
	w.dst, w.msg = h.dst, h.msg
	w.lanes = w.buf[len(w.buf):]
	return w
}

// join prepends l, the lane the head just left through output o of l's
// router, as w's lane 0. The head now sits in the lane o feeds or, for
// portLocal, in the destination's assembly slot.
func (w *worm) join(l wormLane, o int) {
	lo := len(w.buf) - cap(w.lanes)
	w.lanes = w.buf[lo-1 : lo+len(w.lanes)]
	w.lanes[0] = l
	if o == portLocal {
		w.head = wormLane{}
		return
	}
	nb, p := l.r.neighbor[o], oppositePort[o]
	w.head = wormLane{nb, p}
	nb.headWorm[p] = w
}

// applyHop births or grows a worm for head hop h. It runs in Commit,
// after every lane committed. A head leaving a lane that holds its worm's
// head grows the worm by that lane, whose real entries are all body flits
// of the message. Otherwise the hop is a birth when the rest of the
// message sits in the lane the head left: at the source injector, or in a
// lane that holds its tail, the lane where a worm ends. Followers behind a
// tail stay real entries behind the new lane's count. A head entering its
// destination's assembly slot without a worm births none: the worm's only
// lane would be an input lane of the destination router, which an
// eject-fed worm hands straight back to that router.
func (m *Mesh) applyHop(h headHop) {
	r, p := h.r, h.p
	w := r.headWorm[p]
	if w != nil && w.msg != h.msg {
		return // an earlier message's head left the worm's head lane
	}
	if w == nil && h.o == portLocal {
		return
	}
	if r.prefix[p] != 0 {
		panic(fmt.Sprintf("noc: router %d lane %d already carries a worm", r.id, p))
	}
	var n int
	if p == portLocal {
		l := &r.inj.lanes[0]
		if !l.valid || l.cur.msg != h.msg {
			panic(fmt.Sprintf("noc: injector %d is not serializing the message whose head it sent", r.id))
		}
		n = l.cur.flits - l.sent
	} else {
		q := r.in[p][0]
		tail := false
		for n < q.Len() && !tail {
			tail = q.PeekAt(n).Tail
			n++
		}
		switch {
		case w == nil && !tail:
			return // the message's tail is upstream, and no worm holds it
		case w != nil && tail:
			panic(fmt.Sprintf("noc: router %d lane %d holds the tail of a worm still advancing", r.id, p))
		}
		for i := 0; i < n; i++ {
			q.Pop()
		}
		q.Commit()
		*q.DirtyFlag() = false
	}
	if w == nil {
		w = m.newWorm(h)
		m.worms = append(m.worms, w)
	} else {
		r.headWorm[p] = nil
	}
	r.prefix[p] = n
	w.join(wormLane{r, p}, h.o)
}

// stepWorms advances every worm by one cycle. It runs at the end of Tick,
// after every router ticked, so the routers decided on start-of-cycle
// counts. Worms share no lane they step, but a worm's head lane can be
// another's tail lane, so every worm's admission into its head lane is
// decided before any worm steps; then their order does not matter.
func (m *Mesh) stepWorms() {
	depth := m.cfg.BufferDepth
	for _, w := range m.worms {
		if h := w.head; h.r != nil {
			w.feed = h.r.in[h.p][0].Pending()+h.r.prefix[h.p] < depth
		}
	}
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
// tail entered the head's lane, or the destination lane, where the
// remaining flits became real flits for the routers to forward and eject.
func (m *Mesh) stepWorm(w *worm) bool {
	depth := m.cfg.BufferDepth
	last := len(w.lanes) - 1
	m.work.WormLaneSteps += uint64(last + 1)
	dl := w.lanes[0]
	// down is the start-of-cycle count of the lane below the one being
	// stepped; lanes are visited downstream first.
	down := dl.r.prefix[dl.p]
	if h := w.head; down > 0 && h.r == nil {
		dl.r.prefix[dl.p] = down - 1 // the eject hop takes a body flit
	} else if down > 0 && w.feed {
		dl.r.prefix[dl.p] = down - 1
		q := h.r.in[h.p][0]
		track(&m.dirtyFlit, q)
		q.Push(Flit{Dst: w.dst, Tail: last == 0 && down == 1})
		dl.r.stats.flitHops++
		m.work.WormHops++
		if last == 0 {
			w.popTail(dl, oppositePort[h.p], down == 1)
		}
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
	if h := w.head; h.r != nil {
		if len(w.lanes) > 0 {
			return false
		}
		h.r.headWorm[h.p] = nil
		return true
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
		l.r.neighbor[l.p].pokeIfReady()
	}
	if !tail {
		return
	}
	if l.p == portLocal {
		il := &l.r.inj.lanes[0]
		il.sent, il.valid = il.cur.flits, false
	}
	l.r.holder[o][0] = -1
	l.r.pokeIfReady()
	w.lanes = w.lanes[:len(w.lanes)-1]
}

// catchUpWorms runs the worm steps of the cycles before end that have not
// run. It runs between cycles, when every lane is committed, and commits
// the flits the steps passed into head lanes and those a completing worm
// writes back, so the routers that tick next see them.
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
//     neighbour —, pokes stay suppressed until the tail leaves lane 1,
//     which takes at least the sum of the counts of lanes 1 to last. For
//     an eject-fed worm that step completes it; a worm whose head is still
//     on its way passes its flits into the head's lane unseen, since that
//     lane's front is the head (or flits ahead of it) whatever follows.
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
// between cycles (on the reference stepper's first cycle, and before a
// link fault is installed), when every lane is committed, and commits
// what it writes.
func (m *Mesh) materializeWorms() {
	for _, w := range m.worms {
		if h := w.head; h.r != nil {
			h.r.headWorm[h.p] = nil
		}
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
