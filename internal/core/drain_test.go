package core

import (
	"slices"
	"testing"

	"nicwarp/internal/proto"
	"nicwarp/internal/vtime"
)

// TestDrainCreditRefundsAscendingDestination pins the order a credit-refund
// doorbell is serviced in. The NIC books refunds and salvaged credit per
// destination in whatever order drops happen; the host must hand them to
// MPICH in ascending destination order — the order the sorted map keys gave
// before the tables were node-indexed — because both steps put packets on
// the wire (stalled sends released by a refund, explicit credit messages
// for salvaged credit) and their order is visible to the hardware model
// and so to every committed digest.
func TestDrainCreditRefundsAscendingDestination(t *testing.T) {
	for _, tc := range []struct {
		name   string
		booked []int32 // destinations in the order the NIC books them
		want   []int32 // and the order the host must serve them in
	}{
		{"descending", []int32{7, 5, 3, 2}, []int32{2, 3, 5, 7}},
		{"interleaved", []int32{3, 6, 1, 6, 3, 4}, []int32{1, 3, 4, 6}},
		{"single", []int32{5}, []int32{5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := baseConfig()
			cfg.Nodes = 8
			cfg.GVT = GVTNIC
			cfg.EarlyCancel = true
			cl, err := NewClusterExec(cfg, Exec{})
			if err != nil {
				t.Fatal(err)
			}
			n := &cl.nodes[0]
			var sent []*proto.Packet
			flow := cl.cfg.Flow
			n.flow.Init(0, flow, func(p *proto.Packet) { sent = append(sent, p) }, n.pool, nil, nil)

			// Refunds: exhaust the window toward every destination and
			// stall one more packet, then let the NIC book one refund each.
			for _, dst := range tc.want {
				for i := 0; i <= flow.Window; i++ {
					n.flow.Send(&proto.Packet{Kind: proto.KindEvent, SrcNode: 0, DstNode: dst})
				}
			}
			if n.flow.WaitingCount() != len(tc.want) {
				t.Fatalf("stalled %d packets, want one per destination", n.flow.WaitingCount())
			}
			sent = sent[:0]
			w := n.nicDev.Shared()
			for _, dst := range tc.booked {
				w.CreditRefund.Add(dst, 1)
			}
			n.drainCreditRefunds()
			if got := dstNodes(sent); !slices.Equal(got, tc.want) {
				t.Fatalf("refunds released stalled sends toward %v, want %v", got, tc.want)
			}
			if w.CreditRefund.Sum() != 0 {
				t.Fatal("refund table not drained")
			}

			// Salvage: enough credit per destination to force an explicit
			// credit message each; they leave once the host CPU has paid
			// for them.
			sent = sent[:0]
			for _, dst := range tc.booked {
				w.CreditSalvage.Add(dst, int64(flow.ReturnThreshold))
			}
			n.drainCreditRefunds()
			n.eng.Run(vtime.ModelInfinity)
			if got := dstNodes(sent); !slices.Equal(got, tc.want) {
				t.Fatalf("salvaged credit returned toward %v, want %v", got, tc.want)
			}
			for _, p := range sent {
				if p.Kind != proto.KindCredit || p.Credits < int32(flow.ReturnThreshold) {
					t.Fatalf("salvage toward %d left as %v", p.DstNode, p)
				}
			}
			if w.CreditSalvage.Sum() != 0 {
				t.Fatal("salvage table not drained")
			}
		})
	}
}

func dstNodes(pkts []*proto.Packet) []int32 {
	out := make([]int32, len(pkts))
	for i, p := range pkts {
		out[i] = p.DstNode
	}
	return out
}
