package runner

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"nicwarp/internal/core"
)

// Cache stores experiment results by config digest. Implementations must be
// safe for concurrent use. Cached *core.Result values are shared — callers
// must treat them as immutable (everything in this repository only reads
// them to render tables).
type Cache interface {
	Get(key string) (*core.Result, bool)
	Put(key string, res *core.Result)
}

// MemCache is an in-process cache. Within one suite invocation it
// deduplicates identical points (two experiments sweeping the same config
// pay for one execution).
type MemCache struct {
	mu sync.Mutex
	m  map[string]*core.Result
}

// NewMemCache returns an empty in-memory cache.
func NewMemCache() *MemCache {
	return &MemCache{m: make(map[string]*core.Result)}
}

// Get implements Cache.
func (c *MemCache) Get(key string) (*core.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	res, ok := c.m[key]
	return res, ok
}

// Put implements Cache.
func (c *MemCache) Put(key string, res *core.Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = res
}

// Len reports the number of cached results.
func (c *MemCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// DiskCache persists results under dir (conventionally results/cache/), one
// gob-encoded file per config digest, with an in-memory layer in front. A
// file that fails to decode — typically written by a build whose Result
// struct has since changed shape — is treated as a miss and overwritten.
//
// The key fingerprints the configuration, not the simulator, so on-disk
// file names carry cacheSchema as a prefix: bumping it retires every entry
// written by older builds at once. The gob layer catches struct-shape
// drift only by accident; behavioral drift it cannot see, which is exactly
// what the schema bump is for.
type DiskCache struct {
	dir string
	mem *MemCache
}

// cacheSchema versions the on-disk entry format AND the simulator
// semantics behind it. Bump it whenever core.Result changes shape or a
// code change alters what any given Config computes (new counters, fault
// plane in the digest, different event ordering, ...). Old entries are
// simply never read again; they are harmless stale files under
// results/cache/ that a manual `rm -rf` reclaims.
//
//	v1: original layout (bare <digest>.gob, pre-fault-plane results)
//	v2: fault-injection counters + invariant report added to core.Result
//	v3: lane-keyed event ordering and the NIC credit window changed the
//	    committed schedule (and Result) of every config
//	v4: multi-stage topologies added fields to Config (every digest moved)
//	    and convergence counters to core.Result
//	v5: NIC send batching added fields to nic.Config (every digest moved)
//	    and batching counters to core.Result
//	v6: a full drop ring declines the drop instead of evicting a record, so
//	    small-capacity EarlyCancel configs compute something else, and
//	    core.Result traded its two eviction counters for DropsDeclined
const cacheSchema = "v6"

// NewDiskCache opens (creating if needed) a disk cache rooted at dir.
func NewDiskCache(dir string) (*DiskCache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runner: open disk cache: %w", err)
	}
	return &DiskCache{dir: dir, mem: NewMemCache()}, nil
}

// Dir returns the cache root.
func (c *DiskCache) Dir() string { return c.dir }

func (c *DiskCache) path(key string) string {
	return filepath.Join(c.dir, cacheSchema+"-"+key+".gob")
}

// Get implements Cache.
func (c *DiskCache) Get(key string) (*core.Result, bool) {
	if res, ok := c.mem.Get(key); ok {
		return res, true
	}
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		return nil, false
	}
	var res core.Result
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&res); err != nil {
		return nil, false
	}
	c.mem.Put(key, &res)
	return &res, true
}

// Put implements Cache. The file is written to a temporary name and
// renamed, so concurrent writers (or a killed process) can never leave a
// torn entry behind.
func (c *DiskCache) Put(key string, res *core.Result) {
	c.mem.Put(key, res)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(res); err != nil {
		return // cache is advisory; an unencodable result just isn't persisted
	}
	tmp, err := os.CreateTemp(c.dir, key+".tmp*")
	if err != nil {
		return
	}
	_, werr := tmp.Write(buf.Bytes())
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), c.path(key)); err != nil {
		os.Remove(tmp.Name())
	}
}
