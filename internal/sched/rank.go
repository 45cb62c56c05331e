package sched

import "github.com/panic-nic/panic/internal/packet"

// RankFunc maps a message arriving at cycle `now` with chain slack `slack`
// to a queue rank. Lower ranks are served first. The paper's scheduler is
// programmed by choosing how the RMT pipeline computes slack and how the
// queue turns it into a rank; these are the canonical choices ("this
// approach is able to implement any arbitrary local scheduling algorithm").
type RankFunc func(msg *packet.Message, slack uint32, now uint64) uint64

// RankLSTF implements least-slack-time-first: rank is the absolute cycle
// by which service should begin. A message whose slack expires sooner is
// served sooner, and waiting naturally increases urgency relative to new
// arrivals with fresh slack.
func RankLSTF(_ *packet.Message, slack uint32, now uint64) uint64 {
	return now + uint64(slack)
}

// RankFIFO ignores slack: arrival order.
func RankFIFO(_ *packet.Message, _ uint32, now uint64) uint64 {
	return now
}
