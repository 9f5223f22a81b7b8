package runner

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"nicwarp/internal/apps/phold"
	"nicwarp/internal/core"
	"nicwarp/internal/timewarp"
	"nicwarp/internal/vtime"
)

// FirstErr returns the first failed point's error, in submission order, or
// nil when every point succeeded.
func FirstErr(results []Result) error {
	for i := range results {
		if results[i].Err != nil {
			return results[i].Err
		}
	}
	return nil
}

// testJobs returns a small batch of distinct, fast experiment points.
func testJobs(n int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{
			Name: "phold/seed=" + string(rune('a'+i)),
			Config: core.Config{
				App:       phold.New(phold.Params{Objects: 8, Population: 1, Hops: 30, MeanDelay: 50, Locality: 0.2}),
				Nodes:     2,
				Seed:      uint64(i + 1),
				GVTPeriod: 50,
			},
		}
	}
	return jobs
}

// TestParallelMatchesSerial asserts that the pool's aggregation is
// submission-ordered and its results identical to one-worker execution.
func TestParallelMatchesSerial(t *testing.T) {
	jobs := testJobs(6)
	serial := (&Runner{Workers: 1}).Run(jobs)
	parallel := (&Runner{Workers: 4}).Run(jobs)
	if err := FirstErr(serial); err != nil {
		t.Fatal(err)
	}
	if err := FirstErr(parallel); err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if serial[i].Job.Name != jobs[i].Name || parallel[i].Job.Name != jobs[i].Name {
			t.Fatalf("slot %d: aggregation out of submission order", i)
		}
		if !reflect.DeepEqual(serial[i].Res, parallel[i].Res) {
			t.Errorf("slot %d (%s): parallel result differs from serial", i, jobs[i].Name)
		}
	}
}

// TestCacheWarmRerun asserts a second run over a warm cache executes zero
// points and returns identical results.
func TestCacheWarmRerun(t *testing.T) {
	jobs := testJobs(4)
	cache := NewMemCache()
	cold := (&Runner{Workers: 2, Cache: cache}).Run(jobs)
	if err := FirstErr(cold); err != nil {
		t.Fatal(err)
	}
	if got := CachedCount(cold); got != 0 {
		t.Fatalf("cold run served %d points from an empty cache", got)
	}
	warm := (&Runner{Workers: 2, Cache: cache}).Run(jobs)
	if got := CachedCount(warm); got != len(jobs) {
		t.Fatalf("warm run executed %d points, want 0", len(jobs)-got)
	}
	for i := range jobs {
		if warm[i].Attempts != 0 {
			t.Errorf("slot %d: warm run has %d attempts", i, warm[i].Attempts)
		}
		if !reflect.DeepEqual(cold[i].Res, warm[i].Res) {
			t.Errorf("slot %d: cached result differs", i)
		}
	}
}

// TestMemCacheDedupsWithinBatch asserts two identical points in one batch
// pay for one execution when run sequentially.
func TestMemCacheDedupsWithinBatch(t *testing.T) {
	jobs := testJobs(1)
	dup := jobs[0]
	dup.Name = "phold/dup"
	jobs = append(jobs, dup)
	res := (&Runner{Workers: 1, Cache: NewMemCache()}).Run(jobs)
	if err := FirstErr(res); err != nil {
		t.Fatal(err)
	}
	if !res[1].Cached || res[0].Cached {
		t.Fatalf("want second identical point cached, got cached=%v,%v", res[0].Cached, res[1].Cached)
	}
	if res[0].Key != res[1].Key {
		t.Fatalf("identical configs got different keys %s vs %s", res[0].Key, res[1].Key)
	}
}

// TestDiskCachePersists asserts results survive into a fresh DiskCache over
// the same directory, and that a corrupted entry degrades to a miss.
func TestDiskCachePersists(t *testing.T) {
	dir := t.TempDir()
	jobs := testJobs(3)

	c1, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold := (&Runner{Workers: 2, Cache: c1}).Run(jobs)
	if err := FirstErr(cold); err != nil {
		t.Fatal(err)
	}

	c2, err := NewDiskCache(dir) // fresh in-memory layer, same directory
	if err != nil {
		t.Fatal(err)
	}
	warm := (&Runner{Workers: 2, Cache: c2}).Run(jobs)
	if got := CachedCount(warm); got != len(jobs) {
		t.Fatalf("disk-warm run executed %d points, want 0", len(jobs)-got)
	}
	for i := range jobs {
		if !reflect.DeepEqual(cold[i].Res, warm[i].Res) {
			t.Errorf("slot %d: disk round-trip changed the result", i)
		}
	}

	// Corrupt one entry: it must be re-executed, not crash the suite.
	if err := os.WriteFile(c2.path(warm[0].Key), []byte("not gob"), 0o644); err != nil {
		t.Fatal(err)
	}
	c3, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	again := (&Runner{Workers: 1, Cache: c3}).Run(jobs[:1])
	if again[0].Err != nil {
		t.Fatal(again[0].Err)
	}
	if again[0].Cached {
		t.Fatal("corrupted entry served as a hit")
	}
}

// TestDiskCacheSchemaVersioned asserts on-disk entries carry the schema
// prefix, so bumping cacheSchema orphans every older entry instead of
// serving results computed by a build with different semantics.
func TestDiskCacheSchemaVersioned(t *testing.T) {
	dir := t.TempDir()
	c, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	res := (&Runner{Workers: 1, Cache: c}).Run(testJobs(1))
	if err := FirstErr(res); err != nil {
		t.Fatal(err)
	}
	key := res[0].Key
	want := filepath.Join(dir, cacheSchema+"-"+key+".gob")
	if _, err := os.Stat(want); err != nil {
		t.Fatalf("entry not written under schema-prefixed name %s: %v", want, err)
	}

	// An entry written under a different (older) schema must be invisible.
	stale := filepath.Join(dir, "v0-"+key+".gob")
	data, err := os.ReadFile(want)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(stale, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(want); err != nil {
		t.Fatal(err)
	}
	c2, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get(key); ok {
		t.Fatal("entry under a foreign schema prefix was served as a hit")
	}
}

// TestFailureIsolation asserts one failing point retries its bounded budget
// and fails alone, while the rest of the batch completes.
func TestFailureIsolation(t *testing.T) {
	jobs := testJobs(3)
	jobs[1].Name = "phold/diverging"
	jobs[1].Config.MaxModelTime = vtime.ModelTime(1) // guaranteed to exceed
	res := (&Runner{Workers: 2, Retries: 2}).Run(jobs)
	if res[0].Err != nil || res[2].Err != nil {
		t.Fatalf("healthy points failed: %v / %v", res[0].Err, res[2].Err)
	}
	if res[1].Err == nil {
		t.Fatal("diverging point did not fail")
	}
	if res[1].Attempts != 3 {
		t.Fatalf("diverging point ran %d attempts, want 3", res[1].Attempts)
	}
	if !strings.Contains(res[1].Err.Error(), "phold/diverging") {
		t.Fatalf("error does not name the point: %v", res[1].Err)
	}
	if err := FirstErr(res); err == nil {
		t.Fatal("FirstErr missed the failure")
	}
}

// panicApp implements core.App with a Build that panics, standing in for a
// broken experiment construction.
type panicApp struct{}

func (panicApp) Name() string { return "panic" }
func (panicApp) Build(int, uint64) (map[timewarp.ObjectID]timewarp.Object, func(timewarp.ObjectID) int) {
	panic("broken model")
}

// TestPanicIsolation asserts a panicking experiment is contained as that
// point's error.
func TestPanicIsolation(t *testing.T) {
	jobs := []Job{{Name: "boom", Config: core.Config{App: panicApp{}, Nodes: 2}}}
	res := (&Runner{Workers: 1, Retries: 0}).Run(jobs)
	if res[0].Err == nil || !strings.Contains(res[0].Err.Error(), "broken model") {
		t.Fatalf("panic not converted to point error: %v", res[0].Err)
	}
}

// TestProgressSerialAndComplete asserts every point produces exactly one
// notification with a strictly increasing Done count.
func TestProgressSerialAndComplete(t *testing.T) {
	jobs := testJobs(5)
	var seen []Progress
	r := &Runner{Workers: 3, OnProgress: func(p Progress) { seen = append(seen, p) }}
	if err := FirstErr(r.Run(jobs)); err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(jobs) {
		t.Fatalf("got %d progress notifications, want %d", len(seen), len(jobs))
	}
	names := map[string]bool{}
	for i, p := range seen {
		if p.Done != i+1 || p.Total != len(jobs) {
			t.Errorf("notification %d: done=%d/%d", i, p.Done, p.Total)
		}
		names[p.Name] = true
	}
	if len(names) != len(jobs) {
		t.Errorf("notifications cover %d distinct points, want %d", len(names), len(jobs))
	}
}

// TestCacheHitsAcrossShards is the cache-key half of the shard-invariance
// contract: entries written by a serial run must be served, byte-identical,
// to sharded runners (and vice versa), because the key is the config digest
// and the digest cannot see the execution strategy.
func TestCacheHitsAcrossShards(t *testing.T) {
	jobs := testJobs(4)
	cache := NewMemCache()
	cold := (&Runner{Workers: 2, Cache: cache}).Run(jobs)
	if err := FirstErr(cold); err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 4} {
		warm := (&Runner{Workers: 2, Cache: cache, Exec: core.Exec{Shards: shards}}).Run(jobs)
		if err := FirstErr(warm); err != nil {
			t.Fatal(err)
		}
		if got := CachedCount(warm); got != len(jobs) {
			t.Errorf("shards=%d: %d of %d points hit the serial-warmed cache", shards, got, len(jobs))
		}
		for i := range jobs {
			if warm[i].Key != cold[i].Key {
				t.Errorf("shards=%d slot %d: cache key %s != serial %s", shards, i, warm[i].Key, cold[i].Key)
			}
			if !reflect.DeepEqual(warm[i].Res, cold[i].Res) {
				t.Errorf("shards=%d slot %d: cached result differs", shards, i)
			}
		}
	}
	// And the other direction: a cache warmed by a sharded runner serves a
	// serial one.
	cache2 := NewMemCache()
	if err := FirstErr((&Runner{Workers: 2, Cache: cache2, Exec: core.Exec{Shards: 2}}).Run(jobs)); err != nil {
		t.Fatal(err)
	}
	serial := (&Runner{Workers: 2, Cache: cache2}).Run(jobs)
	if got := CachedCount(serial); got != len(jobs) {
		t.Errorf("serial run hit only %d of %d points of a shard-warmed cache", got, len(jobs))
	}
}
