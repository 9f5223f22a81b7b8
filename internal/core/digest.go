package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"reflect"
	"sort"
	"strconv"
	"strings"
)

// Digest returns the content address of a configuration: the hex SHA-256 of
// its canonical encoding. Two configs share a digest exactly when they
// describe the same experiment, so the digest is the cache key for
// deterministic re-runs (internal/runner): a run's Result is a pure function
// of its Config digest (and the simulator code — the cache does not
// fingerprint the binary, see runner.DiskCache).
//
// Canonicalization applies WithDefaults first, so a zero field and its
// explicit default collide on purpose: Config{GVTPeriod: 0} and
// Config{GVTPeriod: 1000} run the same experiment and must hit the same
// cache entry.
func (c Config) Digest() string {
	h := sha256.New()
	writeCanonical(h, "Config", reflect.ValueOf(c.WithDefaults()))
	return hex.EncodeToString(h.Sum(nil))
}

// writeCanonical emits a deterministic, process-independent encoding of v:
// every value is written with its name and concrete type, struct fields in
// declaration order, map entries sorted by encoded key, floats as exact
// IEEE-754 bit patterns. Unexported fields are included (they are read
// through kind accessors, never Interface), so application parameter
// structs are fingerprinted in full. Funcs and channels contribute only
// their type — configs must not carry behavior in closures if they want
// distinct cache identities.
func writeCanonical(w io.Writer, name string, v reflect.Value) {
	if !v.IsValid() {
		fmt.Fprintf(w, "%s:invalid;", name)
		return
	}
	switch v.Kind() {
	case reflect.Bool:
		fmt.Fprintf(w, "%s:bool=%t;", name, v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		fmt.Fprintf(w, "%s:%s=%d;", name, v.Type(), v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		fmt.Fprintf(w, "%s:%s=%d;", name, v.Type(), v.Uint())
	case reflect.Float32, reflect.Float64:
		// Bit-exact: FormatFloat round-trips, but the bit pattern is the
		// unambiguous canonical form (it also distinguishes -0 from 0).
		fmt.Fprintf(w, "%s:%s=%016x;", name, v.Type(), math.Float64bits(v.Float()))
	case reflect.Complex64, reflect.Complex128:
		c := v.Complex()
		fmt.Fprintf(w, "%s:%s=%016x,%016x;", name, v.Type(),
			math.Float64bits(real(c)), math.Float64bits(imag(c)))
	case reflect.String:
		fmt.Fprintf(w, "%s:string=%s;", name, strconv.Quote(v.String()))
	case reflect.Struct:
		fmt.Fprintf(w, "%s:%s{", name, v.Type())
		t := v.Type()
		for i := 0; i < v.NumField(); i++ {
			writeCanonical(w, t.Field(i).Name, v.Field(i))
		}
		fmt.Fprintf(w, "};")
	case reflect.Ptr, reflect.Interface:
		if v.IsNil() {
			fmt.Fprintf(w, "%s:%s=nil;", name, v.Type())
			return
		}
		fmt.Fprintf(w, "%s:%s->", name, v.Type())
		writeCanonical(w, "elem", v.Elem())
	case reflect.Slice, reflect.Array:
		if v.Kind() == reflect.Slice && v.IsNil() {
			fmt.Fprintf(w, "%s:%s=nil;", name, v.Type())
			return
		}
		fmt.Fprintf(w, "%s:%s[%d]{", name, v.Type(), v.Len())
		for i := 0; i < v.Len(); i++ {
			writeCanonical(w, strconv.Itoa(i), v.Index(i))
		}
		fmt.Fprintf(w, "};")
	case reflect.Map:
		if v.IsNil() {
			fmt.Fprintf(w, "%s:%s=nil;", name, v.Type())
			return
		}
		// Encode each entry to its own buffer, then emit in sorted order so
		// the digest is independent of map iteration order.
		entries := make([]string, 0, v.Len())
		iter := v.MapRange()
		for iter.Next() {
			var kb, vb strings.Builder
			writeCanonical(&kb, "k", iter.Key())
			writeCanonical(&vb, "v", iter.Value())
			entries = append(entries, kb.String()+vb.String())
		}
		sort.Strings(entries)
		fmt.Fprintf(w, "%s:%s[%d]{", name, v.Type(), v.Len())
		for _, e := range entries {
			io.WriteString(w, e)
		}
		fmt.Fprintf(w, "};")
	default:
		// Func, Chan, UnsafePointer: type identity only.
		fmt.Fprintf(w, "%s:%s=opaque;", name, v.Type())
	}
}
