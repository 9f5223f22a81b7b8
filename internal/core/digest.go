package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"reflect"
	"slices"
	"strconv"
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
//
// The encoding names every field, so a change in Config's shape (a field
// added, removed or renamed, here or in a struct it embeds) moves every
// digest: cache entries written by older builds are orphaned, never
// served, and TestDigestGolden's constants change with it.
func (c Config) Digest() string {
	buf := appendCanonical(make([]byte, 0, 4096), "Config", reflect.ValueOf(c.WithDefaults()))
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// appendCanonical appends to b a deterministic, process-independent
// encoding of v: every value is written with its name and concrete type,
// struct fields in declaration order, map entries sorted by encoded key,
// floats as exact IEEE-754 bit patterns. Unexported fields are included
// (they are read through kind accessors, never Interface), so application
// parameter structs are fingerprinted in full. Funcs and channels
// contribute only their type — configs must not carry behavior in closures
// if they want distinct cache identities. The encoding grows one buffer
// through strconv's Append functions: no per-field formatting allocations.
func appendCanonical(b []byte, name string, v reflect.Value) []byte {
	b = append(append(b, name...), ':')
	if !v.IsValid() {
		return append(b, "invalid;"...)
	}
	switch v.Kind() {
	case reflect.Ptr, reflect.Interface, reflect.Slice, reflect.Map:
		if v.IsNil() {
			return appendType(b, v, "=nil;")
		}
	}
	switch v.Kind() {
	case reflect.Bool:
		b = strconv.AppendBool(append(b, "bool="...), v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		b = strconv.AppendInt(appendType(b, v, "="), v.Int(), 10)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		b = strconv.AppendUint(appendType(b, v, "="), v.Uint(), 10)
	case reflect.Float32, reflect.Float64:
		// Bit-exact: FormatFloat round-trips, but the bit pattern is the
		// unambiguous canonical form (it also distinguishes -0 from 0).
		b = appendBits(appendType(b, v, "="), v.Float())
	case reflect.Complex64, reflect.Complex128:
		c := v.Complex()
		b = appendBits(append(appendBits(appendType(b, v, "="), real(c)), ','), imag(c))
	case reflect.String:
		b = strconv.AppendQuote(append(b, "string="...), v.String())
	case reflect.Struct:
		b = appendType(b, v, "{")
		for i := 0; i < v.NumField(); i++ {
			b = appendCanonical(b, v.Type().Field(i).Name, v.Field(i))
		}
		b = append(b, '}')
	case reflect.Ptr, reflect.Interface:
		return appendCanonical(appendType(b, v, "->"), "elem", v.Elem())
	case reflect.Slice, reflect.Array:
		b = append(strconv.AppendInt(appendType(b, v, "["), int64(v.Len()), 10), "]{"...)
		for i := 0; i < v.Len(); i++ {
			b = appendCanonical(b, strconv.Itoa(i), v.Index(i))
		}
		b = append(b, '}')
	case reflect.Map:
		// Encode the entries past the header, then append them again in
		// sorted order, so the digest is independent of map iteration
		// order, and move that copy down over the unsorted one.
		b = append(strconv.AppendInt(appendType(b, v, "["), int64(v.Len()), 10), "]{"...)
		start, spans := len(b), make([][2]int, 0, v.Len())
		for iter := v.MapRange(); iter.Next(); {
			lo := len(b)
			b = appendCanonical(appendCanonical(b, "k", iter.Key()), "v", iter.Value())
			spans = append(spans, [2]int{lo, len(b)})
		}
		slices.SortFunc(spans, func(x, y [2]int) int { return bytes.Compare(b[x[0]:x[1]], b[y[0]:y[1]]) })
		end := len(b)
		for _, s := range spans {
			b = append(b, b[s[0]:s[1]]...)
		}
		b = append(b[:start+copy(b[start:], b[end:])], '}')
	default:
		// Func, Chan, UnsafePointer: type identity only.
		b = appendType(b, v, "=opaque")
	}
	return append(b, ';')
}

// appendType appends v's type, then suffix.
func appendType(b []byte, v reflect.Value, suffix string) []byte {
	return append(append(b, v.Type().String()...), suffix...)
}

// appendBits appends f's IEEE-754 bit pattern as 16 lower-case hex digits.
func appendBits(b []byte, f float64) []byte {
	bits := math.Float64bits(f)
	for shift := 60; shift >= 0; shift -= 4 {
		b = append(b, "0123456789abcdef"[bits>>shift&0xf])
	}
	return b
}
