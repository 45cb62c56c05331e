package sim

import "sync"

// EpochSet advances a group of independent kernels in lockstep epochs:
// each Run(cycles) call lets every kernel free-run the window on its own
// shard goroutine, then waits for all of them at a barrier. This is the
// conservative-lookahead half of a parallel discrete-event simulation: as
// long as no state crosses between kernels except at the barriers (and
// the epoch never exceeds the minimum inter-kernel latency, so a message
// emitted inside one epoch cannot be due before the next begins), the
// combined simulation is deterministic for ANY shard count. Shards
// synchronize once per epoch rather than once per cycle, which is why this
// is the simulator's only host parallelism: each kernel runs on one
// goroutine.
//
// Kernel i runs on shard i % shards; shard 0 executes on the caller's
// goroutine, so shards <= 1 degenerates to a plain sequential loop with
// no goroutines and no channel traffic. Shard goroutines are persistent
// across epochs (started on first Run, released by Shutdown) because
// epochs are short — often tens of cycles — and per-epoch goroutine
// spawning would dominate.
type EpochSet struct {
	kernels []*Kernel
	shards  int

	started bool
	start   []chan uint64 // per goroutine shard (index 1..shards-1)
	wg      sync.WaitGroup
}

// NewEpochSet builds the runner. shards < 1 is treated as 1; shards above
// len(kernels) are clamped (an empty shard would only cost a goroutine).
func NewEpochSet(kernels []*Kernel, shards int) *EpochSet {
	if shards < 1 {
		shards = 1
	}
	if shards > len(kernels) {
		shards = len(kernels)
	}
	return &EpochSet{kernels: kernels, shards: shards}
}

// Shards returns the effective shard count.
func (e *EpochSet) Shards() int { return e.shards }

// Run advances every kernel by cycles and returns after all have reached
// the barrier. The caller may touch cross-kernel state (message exchange,
// placement changes) freely between Run calls: no kernel is mid-cycle.
func (e *EpochSet) Run(cycles uint64) {
	if cycles == 0 {
		return
	}
	if e.shards == 1 {
		for _, k := range e.kernels {
			k.Run(cycles)
		}
		return
	}
	if !e.started {
		e.start = make([]chan uint64, e.shards)
		for s := 1; s < e.shards; s++ {
			ch := make(chan uint64)
			e.start[s] = ch
			go func(shard int, ch chan uint64) {
				for n := range ch {
					for i := shard; i < len(e.kernels); i += e.shards {
						e.kernels[i].Run(n)
					}
					e.wg.Done()
				}
			}(s, ch)
		}
		e.started = true
	}
	e.wg.Add(e.shards - 1)
	for s := 1; s < e.shards; s++ {
		e.start[s] <- cycles
	}
	// Shard 0 runs inline: the caller's goroutine is otherwise idle until
	// the barrier anyway.
	for i := 0; i < len(e.kernels); i += e.shards {
		e.kernels[i].Run(cycles)
	}
	e.wg.Wait()
}

// Shutdown releases the shard goroutines. The set remains usable; a later
// Run restarts them.
func (e *EpochSet) Shutdown() {
	if !e.started {
		return
	}
	for s := 1; s < e.shards; s++ {
		close(e.start[s])
	}
	e.start = nil
	e.started = false
}
