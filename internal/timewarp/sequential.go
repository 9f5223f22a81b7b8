package timewarp

import (
	"fmt"
	"slices"
)

// SequentialResult is the outcome of an oracle run.
type SequentialResult struct {
	// Digest is the committed-state digest across all objects.
	Digest uint64
	// Processed is the per-object committed event count.
	Processed map[ObjectID]int
	// TotalEvents is the total number of events executed.
	TotalEvents int
}

// Sequential executes the given objects to completion under a sequential
// discrete-event loop and returns the committed results.
//
// The oracle is a Time Warp kernel holding *every* object: with no remote
// objects, each send lands in the future of a single global
// lowest-timestamp-first scheduler, so no straggler can ever occur, no
// rollback happens, and execution is exactly the sequential order defined by
// Event.Compare. Any distributed run of the same objects — whatever the GVT
// manager, firmware or cancellation policy — must commit the same per-object
// event counts and the same final state digest.
//
// maxEvents bounds the run as a safety net against diverging models; pass 0
// for no bound. Sequential panics if the bound is exceeded.
func Sequential(objects map[ObjectID]Object, maxEvents int) SequentialResult {
	// Deterministic registration order: ascending object ID.
	ids := make([]ObjectID, 0, len(objects))
	for id := range objects {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	k := new(Kernel)
	k.Init(Config{}, NewRows([]int{len(ids)}, ids), nil)
	for _, id := range ids {
		k.AddObject(id, objects[id])
	}
	boot := k.Bootstrap()
	if len(boot.Remote) != 0 {
		panic("timewarp: sequential oracle produced remote events")
	}
	total := 0
	for k.HasWork() {
		res := k.ProcessOne()
		if len(res.Remote) != 0 {
			panic("timewarp: sequential oracle produced remote events")
		}
		if res.Rollbacks != 0 {
			panic("timewarp: sequential oracle rolled back")
		}
		total++
		if total%1024 == 0 {
			// No straggler can arrive: the lowest pending timestamp is a safe GVT.
			k.FossilCollect(k.NextTS())
		}
		if maxEvents > 0 && total > maxEvents {
			panic(fmt.Sprintf("timewarp: sequential oracle exceeded %d events", maxEvents))
		}
	}
	return SequentialResult{
		Digest:      k.CommittedDigest(),
		Processed:   k.ProcessedCounts(),
		TotalEvents: total,
	}
}
