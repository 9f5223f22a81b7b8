package nicwarp

import (
	"reflect"
	"slices"
	"testing"

	"nicwarp/internal/runner"
	"nicwarp/internal/simnet"
	"nicwarp/internal/vtime"
)

// warmMix is a fixed mix of points for one runner worker to run back to
// back: figure points of both models, NIC batching, a 256-node fat tree
// under the tree GVT followed by an 8-node point, a fault plan, a point
// whose run fails (it cannot finish by its model-time limit) between two
// that pass, and a one-node point, which runs serially on a sharded
// runner, before the sharded points after it.
func warmMix(t *testing.T) []runner.Job {
	t.Helper()
	opts := FigureOpts{Scale: 0.01}
	pick := func(exp, name string) runner.Job {
		e, err := ExperimentByName(exp)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range e.Jobs(opts) {
			if j.Name == name {
				return j
			}
		}
		t.Fatalf("%s has no point %s", exp, name)
		return runner.Job{}
	}
	fig4 := pick("fig4", "fig4/period=1/nic-gvt")
	net := simnet.DefaultConfig()
	net.Topology = TopoFatTree
	tree := runner.Job{Name: "tree256", Config: Config{
		App:   PHOLD(PHOLDParams{Objects: 512, Population: 1, Hops: 2, MeanDelay: 50, Locality: 0.2}),
		Nodes: 256, Seed: 5, GVT: GVTNICTree, GVTPeriod: 100, Net: net,
	}}
	plan, err := FaultScenario("chaos", 3)
	if err != nil {
		t.Fatal(err)
	}
	fault := runner.Job{Name: "fault", Config: Config{
		App:   PHOLD(PHOLDParams{Objects: 16, Population: 1, Hops: 30, MeanDelay: 40, Locality: 0.2}),
		Nodes: 4, Seed: 7, GVT: GVTNIC, GVTPeriod: 50, EarlyCancel: true, Fault: plan,
	}}
	stuck := fig4
	stuck.Name = "stuck"
	stuck.Config.MaxModelTime = 100 * vtime.Microsecond
	lone := runner.Job{Name: "lone", Config: Config{App: RAID(RAIDGVTConfig(200)), Nodes: 1, Seed: 2}}
	return []runner.Job{
		lone,
		pick("fig5", "fig5/period=100/nic-gvt"),
		tree,
		pick("fig4", "fig4/period=10/mattern"),
		pick("abl-batching", "abl-batching/batch=8"),
		fault,
		fig4,
		stuck,
		pick("fig5", "fig5/period=1/nic-gvt"),
		tree,
		pick("fig5", "fig5/period=100/mattern"),
		fig4,
	}
}

// TestWarmWorkerMatchesFreshRuns: a one-worker runner assembles every point
// of a batch on the memory its earlier points grew. Whatever ran before on
// that memory, and however large it was, each point's result must equal a
// fresh Run of the same config, serially and on two shards, in the mix's
// order and reversed; the failing point must fail the same way.
func TestWarmWorkerMatchesFreshRuns(t *testing.T) {
	mix := warmMix(t)
	for _, shards := range []int{1, 2} {
		fresh := make(map[string]*Result)
		for _, j := range mix {
			if _, ok := fresh[j.Name]; ok {
				continue
			}
			res, err := Run(j.Config, WithShards(shards))
			if (err != nil) != (j.Name == "stuck") {
				t.Fatalf("shards=%d: fresh %s: %v", shards, j.Name, err)
			}
			fresh[j.Name] = res
		}
		for _, order := range []string{"forward", "reversed"} {
			jobs := slices.Clone(mix)
			if order == "reversed" {
				slices.Reverse(jobs)
			}
			r := &runner.Runner{Workers: 1, Exec: Exec{Shards: shards}}
			for i, got := range r.Run(jobs) {
				name := got.Job.Name
				if name == "stuck" {
					if got.Err == nil {
						t.Errorf("shards=%d %s: point %d (%s) passed on a warm worker, want its fresh run's failure", shards, order, i, name)
					}
					continue
				}
				if got.Err != nil {
					t.Fatalf("shards=%d %s: point %d (%s): %v", shards, order, i, name, got.Err)
				}
				if !reflect.DeepEqual(got.Res, fresh[name]) {
					t.Errorf("shards=%d %s: point %d (%s) differs from a fresh run:\nwarm  %+v\nfresh %+v",
						shards, order, i, name, *got.Res, *fresh[name])
				}
			}
		}
	}
}
