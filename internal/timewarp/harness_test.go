package timewarp

import (
	"fmt"
	"testing"

	"nicwarp/internal/rng"
	"nicwarp/internal/vtime"
)

// harness runs a set of objects partitioned over several kernels, delivering
// inter-LP messages in an adversarial (seeded-random) order to provoke
// stragglers, rollbacks, anti-message races and zombies. It is a transport
// with no FIFO guarantee — strictly weaker than the real fabric — so
// anything that survives it survives the cluster.
type harness struct {
	kernels []*Kernel
	home    map[ObjectID]int // object -> kernel index
	mailbox []*Event
	rnd     rng.Source
	steps   int
	// trace folds every StepResult run() saw, in order, into one hash, so two
	// runs can be compared step for step.
	trace uint64
	// after, when set, inspects a kernel after each of its public calls.
	after func(*Kernel)
}

func newHarness(nLP int, objs map[ObjectID]Object, assign func(ObjectID) int, seed uint64) *harness {
	return newHarnessPool(nLP, objs, assign, seed, false)
}

// newHarnessPool is newHarness with control over event pooling, for the
// property test proving pooling is observationally invisible.
func newHarnessPool(nLP int, objs map[ObjectID]Object, assign func(ObjectID) int, seed uint64, disablePool bool) *harness {
	h := &harness{home: make(map[ObjectID]int), rnd: rng.New(seed)}
	for lp := 0; lp < nLP; lp++ {
		h.kernels = append(h.kernels, NewKernel(Config{LP: lp, DisableEventPool: disablePool}))
	}
	// Deterministic registration order.
	ids := make([]ObjectID, 0, len(objs))
	for id := range objs {
		ids = append(ids, id)
	}
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	for _, id := range ids {
		lp := assign(id)
		h.home[id] = lp
		h.kernels[lp].AddObject(id, objs[id])
	}
	return h
}

func (h *harness) post(evs []*Event) {
	h.mailbox = append(h.mailbox, evs...)
}

// step folds the result of one step kernel k just took into the trace and
// posts its remote messages.
func (h *harness) step(k *Kernel, res StepResult) {
	if h.after != nil {
		h.after(k)
	}
	for _, v := range [...]uint64{uint64(k.Stats.Processed.Value()), uint64(res.Rollbacks), uint64(res.UndoneEvents),
		uint64(res.AntisEmitted), uint64(k.Stats.Annihilations.Value()), uint64(len(res.Remote))} {
		h.trace = DigestMix(h.trace, v)
	}
	for _, ev := range res.Remote {
		for _, v := range [...]uint64{uint64(ev.ID), uint64(ev.Src), uint64(ev.Dst), uint64(ev.SendTS),
			uint64(ev.RecvTS), uint64(ev.Sign), ev.Payload} {
			h.trace = DigestMix(h.trace, v)
		}
	}
	h.post(res.Remote)
}

// deliveryWindow bounds message reordering: a message can be overtaken by
// at most this many younger messages. Unbounded staleness makes optimistic
// execution thrash (rollback echo dominates and net progress crawls), which
// is realistic but useless for a convergence test.
const deliveryWindow = 16

// run drives the system to quiescence and returns the total committed
// events. Fails the test if the run does not terminate within a bound.
func (h *harness) run(t *testing.T) int {
	t.Helper()
	for _, k := range h.kernels {
		h.step(k, k.Bootstrap())
	}
	const bound = 5_000_000
	// Drive until no kernel has work and the mailbox is empty.
	for {
		busyKernels := 0
		for _, k := range h.kernels {
			if k.HasWork() {
				busyKernels++
			}
		}
		if busyKernels == 0 && len(h.mailbox) == 0 {
			break
		}
		h.steps++
		if h.steps > bound {
			t.Fatal("harness did not quiesce")
		}
		// Randomly deliver a mailbox message or step a busy kernel.
		deliver := len(h.mailbox) > 0 && (busyKernels == 0 || h.rnd.Bool(0.6))
		if deliver {
			w := len(h.mailbox)
			if w > deliveryWindow {
				w = deliveryWindow
			}
			i := h.rnd.Intn(w)
			ev := h.mailbox[i]
			h.mailbox = append(h.mailbox[:i], h.mailbox[i+1:]...)
			k := h.kernels[h.home[ev.Dst]]
			h.step(k, k.Deliver(ev))
		} else {
			// Pick a random busy kernel.
			pick := h.rnd.Intn(busyKernels)
			for _, k := range h.kernels {
				if !k.HasWork() {
					continue
				}
				if pick == 0 {
					h.step(k, k.ProcessOne())
					break
				}
				pick--
			}
		}
	}
	// Idle: GVT is Infinity, so everything commits (in the cluster this is
	// the GVT manager's terminal commit).
	for _, k := range h.kernels {
		k.FossilCollect(vtime.Infinity)
	}
	total := 0
	for _, k := range h.kernels {
		if !k.Quiescent() {
			t.Fatal("kernel not quiescent at termination")
		}
		total += k.CommittedEvents()
	}
	return total
}

func (h *harness) digest() uint64 {
	d := uint64(0x243F6A8885A308D3)
	// Fold per-object digests in global ID order, mirroring the oracle's
	// single-kernel digest.
	var ids []ObjectID
	for id := range h.home {
		ids = append(ids, id)
	}
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	for _, id := range ids {
		k := h.kernels[h.home[id]]
		d = DigestMix(d, uint64(uint32(id)))
		d = DigestMix(d, k.ObjectDigest(id))
	}
	return d
}

// checkAgainstOracle runs the workload distributed and sequentially and
// compares committed digests and counts.
func checkAgainstOracle(t *testing.T, nObj, nLP, budget int, seed uint64) {
	t.Helper()
	assign := func(id ObjectID) int { return int(id) % nLP }

	h := newHarness(nLP, buildObjs(nObj, budget, seed), assign, seed*31+7)
	committed := h.run(t)

	ref := Sequential(buildObjs(nObj, budget, seed), 10_000_000)

	if committed != ref.TotalEvents {
		t.Fatalf("committed %d events, oracle %d", committed, ref.TotalEvents)
	}
	if got := h.digest(); got != ref.Digest {
		t.Fatalf("digest %x != oracle %x", got, ref.Digest)
	}
	// Per-object counts.
	for id, want := range ref.Processed {
		k := h.kernels[h.home[id]]
		if got := k.ProcessedCounts()[id]; got != want {
			t.Fatalf("object %d committed %d, oracle %d", id, got, want)
		}
	}
}

func TestDistributedMatchesOracleAggressive(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			checkAgainstOracle(t, 6, 3, 40, seed)
		})
	}
}

func TestDistributedLargerConfigurations(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cases := []struct{ nObj, nLP, budget int }{
		{12, 4, 100},
		{12, 4, 100},
		{20, 8, 60},
		{3, 2, 200},
		{6, 3, 120},
	}
	for i, c := range cases {
		c := c
		t.Run(fmt.Sprintf("case%d", i), func(t *testing.T) {
			checkAgainstOracle(t, c.nObj, c.nLP, c.budget, uint64(100+i))
		})
	}
}

func TestRollbacksActuallyHappen(t *testing.T) {
	// The adversarial transport must actually provoke rollbacks, otherwise
	// the oracle tests above prove nothing.
	h := newHarness(3, buildObjs(6, 60, 42), func(id ObjectID) int { return int(id) % 3 }, 99)
	h.run(t)
	var rollbacks int64
	for _, k := range h.kernels {
		rollbacks += k.Stats.Rollbacks.Value()
	}
	if rollbacks == 0 {
		t.Fatal("no rollbacks provoked; the harness is too gentle")
	}
}

func TestPeriodicFossilCollectionPreservesResults(t *testing.T) {
	// Interleave fossil collection at a safe bound (min LVT across LPs and
	// mailbox timestamps) and check results still match the oracle.
	seed := uint64(23)
	h := newHarness(3, buildObjs(6, 60, seed), func(id ObjectID) int { return int(id) % 3 }, 11)
	for _, k := range h.kernels {
		res := k.Bootstrap()
		h.post(res.Remote)
	}
	steps := 0
	for {
		busy := false
		for _, k := range h.kernels {
			if k.HasWork() {
				busy = true
			}
		}
		if !busy && len(h.mailbox) == 0 {
			break
		}
		steps++
		if steps > 2_000_000 {
			t.Fatal("did not quiesce")
		}
		if len(h.mailbox) > 0 && h.rnd.Bool(0.5) {
			i := h.rnd.Intn(len(h.mailbox))
			ev := h.mailbox[i]
			h.mailbox[i] = h.mailbox[len(h.mailbox)-1]
			h.mailbox = h.mailbox[:len(h.mailbox)-1]
			res := h.kernels[h.home[ev.Dst]].Deliver(ev)
			h.post(res.Remote)
		} else if busy {
			for _, k := range h.kernels {
				if k.HasWork() {
					res := k.ProcessOne()
					h.post(res.Remote)
					break
				}
			}
		}
		if steps%200 == 0 {
			// True GVT: min over LP LVTs and in-transit messages.
			gvt := h.kernels[0].NextTS()
			for _, k := range h.kernels[1:] {
				if v := k.NextTS(); v < gvt {
					gvt = v
				}
			}
			for _, ev := range h.mailbox {
				if ev.RecvTS < gvt {
					gvt = ev.RecvTS
				}
			}
			for _, k := range h.kernels {
				k.FossilCollect(gvt)
			}
		}
	}
	total := 0
	var reclaimed int64
	for _, k := range h.kernels {
		total += k.CommittedEvents()
		reclaimed += k.Stats.FossilEvents.Value()
	}
	ref := Sequential(buildObjs(6, 60, seed), 10_000_000)
	if total != ref.TotalEvents {
		t.Fatalf("committed %d, oracle %d", total, ref.TotalEvents)
	}
	if got := h.digest(); got != ref.Digest {
		t.Fatalf("digest %x != oracle %x", got, ref.Digest)
	}
	if reclaimed == 0 {
		t.Fatal("fossil collection never reclaimed anything")
	}
}
