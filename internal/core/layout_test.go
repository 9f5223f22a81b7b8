package core

import (
	"reflect"
	"testing"
	"unsafe"

	"nicwarp/internal/simnet"
)

// TestLayoutKeepsShardsOffEachOthersLines: a cluster's nodes live in one
// slice, the fabric's ports in another, each per-peer table in one array
// with a row per node, and the kernels' object runtimes, scheduler arrays
// and first pending-index buckets in one array each with a row per kernel.
// Each node, port and row is written only by the goroutine of the shard it
// lives on, so each must fill whole 64-byte cache lines, or two shards'
// neighbours would write the same line.
func TestLayoutKeepsShardsOffEachOthersLines(t *testing.T) {
	if size := unsafe.Sizeof(node{}); size%64 != 0 {
		t.Errorf("node is %d bytes, not a multiple of 64", size)
	}
	ports, ok := reflect.TypeOf(simnet.Fabric{}).FieldByName("ports")
	if !ok || ports.Type.Kind() != reflect.Slice {
		t.Fatal("simnet.Fabric keeps its ports in no slice named ports")
	}
	if size := ports.Type.Elem().Size(); size%64 != 0 {
		t.Errorf("simnet port is %d bytes, not a multiple of 64", size)
	}
	for _, nodes := range []int{1, 5, 8, 9, 256} {
		checkRows(t, peerTable(new([]uint64), nodes), nodes, 8)
		checkRows(t, peerTable(new([]int32), nodes), nodes, 16)
	}
	// One scratch, largest cluster first: the smaller ones assemble on
	// arrays it grew, which must keep their rows on whole lines too.
	var scratch Scratch
	for _, nodes := range []int{9, 1, 5, 8} {
		cfg := baseConfig()
		cfg.Nodes, cfg.App = nodes, pholdApp(3*nodes+2, 1)
		cl, err := NewClusterOn(cfg, Exec{}, &scratch)
		if err != nil {
			t.Fatal(err)
		}
		// Kernel 0's rows start their arrays: every row must sit a whole
		// number of lines past it and span whole lines.
		rows := func(i int) map[string]reflect.Value {
			k := reflect.ValueOf(&cl.nodes[i].kernel).Elem()
			sched := k.FieldByName("sched")
			return map[string]reflect.Value{
				"objects": k.FieldByName("order"), "heap keys": sched.FieldByName("k"),
				"heap ids": sched.FieldByName("id"), "heap positions": sched.FieldByName("pos"),
				"index buckets": k.FieldByName("pindex").FieldByName("buckets"),
			}
		}
		first := rows(0)
		for i := range cl.nodes {
			for name, row := range rows(i) {
				bytes := uintptr(row.Cap()) * row.Type().Elem().Size()
				if off := row.Pointer() - first[name].Pointer(); bytes == 0 || bytes%64 != 0 || off%64 != 0 {
					t.Errorf("%d nodes: kernel %d's %s row is %d bytes at offset %d, want whole 64-byte lines",
						nodes, i, name, bytes, off)
				}
			}
		}
	}
}

// checkRows checks that table holds one row per node of at least nodes
// entries, padded to a multiple of perLine entries (64 bytes), and that
// peerRow hands out each row empty with exactly the row as its capacity.
func checkRows[T any](t *testing.T, table []T, nodes, perLine int) {
	t.Helper()
	stride := len(table) / nodes
	if len(table) != nodes*stride || stride < nodes || stride%perLine != 0 || stride-nodes >= perLine {
		t.Errorf("%d nodes: %d-entry %T rows, want %d entries padded to a multiple of %d",
			nodes, stride, table, nodes, perLine)
	}
	for i := 0; i < nodes; i++ {
		row := peerRow(table, i, nodes)
		if len(row) != 0 || cap(row) != stride || &row[:1][0] != &table[i*stride] {
			t.Fatalf("%d nodes: row %d is len %d cap %d, want an empty row of %d at entry %d",
				nodes, i, len(row), cap(row), stride, i*stride)
		}
	}
}
