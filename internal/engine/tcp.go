package engine

import (
	"fmt"
	"math"

	"github.com/panic-nic/panic/internal/packet"
)

// LSOConfig parameterizes the TCP segmentation-offload engine.
type LSOConfig struct {
	// MSS is the maximum segment payload in bytes.
	MSS int
	// BytesPerCycle is the segmentation datapath width.
	BytesPerCycle float64
	// SetupCycles is the fixed per-send cost (header template build).
	SetupCycles uint64
}

// LSOEngine is a TCP large-send-offload engine (the "TCP Offload Engines"
// row of the paper's Table 1, in its modern LSO/TSO form): the host hands
// the NIC one large TCP send, and the engine cuts it into MSS-sized wire
// segments with cloned headers and advancing sequence numbers. Each
// segment continues along the original message's chain, so segments can be
// chained through further offloads (checksum, encryption) like any other
// message.
type LSOEngine struct {
	cfg  LSOConfig
	outs outBuf

	sends, segments uint64
}

// NewLSOEngine builds the engine.
func NewLSOEngine(cfg LSOConfig) *LSOEngine {
	if cfg.MSS < 1 {
		panic(fmt.Sprintf("engine: LSO MSS %d", cfg.MSS))
	}
	requirePositive("LSO bytes/cycle", cfg.BytesPerCycle)
	return &LSOEngine{cfg: cfg}
}

// Name implements Engine.
func (e *LSOEngine) Name() string { return "tcp-lso" }

// ServiceCycles implements Engine: the whole send streams through the
// segmentation datapath once.
func (e *LSOEngine) ServiceCycles(msg *packet.Message) uint64 {
	return e.cfg.SetupCycles + uint64(math.Ceil(float64(msg.WireLen())/e.cfg.BytesPerCycle))
}

// Process implements Engine: non-TCP messages and already-small segments
// pass through; large TCP sends are segmented.
func (e *LSOEngine) Process(ctx *Ctx, msg *packet.Message) []Out {
	tcpLayer := msg.Pkt.Layer(packet.LayerTypeTCP)
	if tcpLayer == nil || msg.Pkt.PayloadLen <= e.cfg.MSS {
		return e.outs.one(Out{Msg: msg})
	}
	e.sends++
	tcp := tcpLayer.(*packet.TCP)
	eth := msg.Pkt.Layer(packet.LayerTypeEthernet).(*packet.Ethernet)
	ip := msg.Pkt.Layer(packet.LayerTypeIPv4).(*packet.IPv4)
	var chain *packet.Chain
	if c := msg.Chain(); c != nil {
		chain = c
	}

	total := msg.Pkt.PayloadLen
	e.outs = e.outs[:0]
	seq := tcp.Seq
	for off := 0; off < total; off += e.cfg.MSS {
		size := e.cfg.MSS
		if off+size > total {
			size = total - off
		}
		flags := tcp.Flags &^ packet.TCPFlagPSH
		if off+size == total {
			flags = tcp.Flags // PSH/FIN only on the last segment
		}
		segIP := *ip
		segIP.TotalLen = uint16(20 + 20 + size)
		segIP.ID = ip.ID + uint16(off/e.cfg.MSS)
		segIP.Checksum = segIP.ComputeChecksum()
		seg := &packet.Message{
			ID:      msg.ID,
			TraceID: msg.TraceID,
			Tenant:  msg.Tenant,
			Class:   msg.Class,
			Port:    msg.Port,
			Inject:  msg.Inject,
			Pkt: packet.NewPacket(size,
				&packet.Ethernet{Dst: eth.Dst, Src: eth.Src, EtherType: packet.EtherTypeIPv4},
				&segIP,
				&packet.TCP{SrcPort: tcp.SrcPort, DstPort: tcp.DstPort,
					Seq: seq, Ack: tcp.Ack, Flags: flags, Window: tcp.Window},
			),
		}
		if chain != nil {
			// Each segment inherits the remaining chain so it visits the
			// same downstream offloads.
			hops := make([]packet.Hop, len(chain.Hops))
			copy(hops, chain.Hops)
			seg.InsertChain(&packet.Chain{Cursor: chain.Cursor, Flags: chain.Flags, Hops: hops})
		}
		seq += uint32(size)
		e.segments++
		e.outs = append(e.outs, Out{Msg: seg})
	}
	// The large send is consumed: every segment carries copies of its
	// headers.
	ctx.Pool.Put(msg)
	return e.outs
}

// Counts returns (large sends, segments emitted).
func (e *LSOEngine) Counts() (sends, segments uint64) { return e.sends, e.segments }
