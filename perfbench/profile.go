package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file reads a runtime/pprof CPU profile (gzipped profile.proto) and
// attributes its samples to the repository's layers. Only the fields the
// attribution needs are decoded: samples, locations, functions and the
// string table.

// layers lists the attribution buckets in report order. Every CPU sample
// lands in exactly one of them.
var layers = []string{
	"graph", "registry", "simul", "agg", "algo", "service", "store",
	"tenant", "httpapi", "wire", "cluster", "runtime.gc", "other",
}

// packageLayers maps a Go package path to its layer. A frame whose package
// is not listed decides nothing: attribution moves on to its caller.
var packageLayers = map[string]string{
	"repro/internal/graph":                   "graph",
	"repro":                                  "registry",
	"repro/internal/registry":                "registry",
	"repro/internal/simul":                   "simul",
	"repro/internal/agg":                     "agg",
	"repro/internal/core":                    "algo",
	"repro/internal/mis":                     "algo",
	"repro/internal/nmis":                    "algo",
	"repro/internal/coloring":                "algo",
	"repro/internal/fastmatch":               "algo",
	"repro/internal/augment":                 "algo",
	"repro/internal/hypergraph":              "algo",
	"repro/internal/flow":                    "algo",
	"repro/internal/exact":                   "algo",
	"repro/internal/service":                 "service",
	"repro/internal/store":                   "store",
	"repro/internal/tenant":                  "tenant",
	"repro/internal/httpapi":                 "httpapi",
	"repro/internal/cluster":                 "cluster",
	"net":                                    "wire",
	"net/http":                               "wire",
	"net/http/internal":                      "wire",
	"net/textproto":                          "wire",
	"net/url":                                "wire",
	"encoding/json":                          "wire",
	"internal/poll":                          "wire",
	"vendor/golang.org/x/net/http/httpguts":  "wire",
	"vendor/golang.org/x/net/http/httpproxy": "wire",
}

// passThrough lists the repository packages that own no layer: helpers whose
// time belongs to the caller (random numbers, telemetry summaries, summary
// statistics, the race-build flag), the write-ahead log that every workload
// leaves off, and the parameter-sweep package no workload calls.
var passThrough = map[string]bool{
	"repro/internal/rng":   true,
	"repro/internal/obs":   true,
	"repro/internal/stats": true,
	"repro/internal/race":  true,
	"repro/internal/wal":   true,
	"repro/internal/sweep": true,
}

// gcFunctions are runtime entry points of garbage collection work; a sample
// with any of them on its stack is GC time, whoever triggered it.
var gcFunctions = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain",
	"runtime.gcStart", "runtime.gcMarkDone", "runtime.gcMarkTermination",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone",
	"runtime.markroot", "runtime.scanobject", "runtime.(*mheap).reclaim",
	"runtime.(*sweepLocked).sweep", "runtime.(*gcWork)",
}

// funcPackage extracts the package path from a fully qualified Go function
// name such as "repro/internal/agg.(*directNode).Step" or
// "slices.SortFunc[go.shape.int]".
func funcPackage(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i]
	}
	slash := strings.LastIndexByte(name, '/')
	if dot := strings.IndexByte(name[slash+1:], '.'); dot >= 0 {
		return name[:slash+1+dot]
	}
	return name
}

// layerOf attributes one stack, innermost frame first, to a layer: GC work
// wherever it appears, else the innermost frame whose package owns a layer,
// else "other".
func layerOf(stack []string) string {
	for _, fn := range stack {
		for _, gc := range gcFunctions {
			if strings.HasPrefix(fn, gc) {
				return "runtime.gc"
			}
		}
	}
	for _, fn := range stack {
		if l, ok := packageLayers[funcPackage(fn)]; ok {
			return l
		}
	}
	return "other"
}

// cpuByLayer sums the CPU nanoseconds of a profile's samples per layer.
func cpuByLayer(prof []byte) (map[string]int64, error) {
	p, err := parseProfile(prof)
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64, len(layers))
	for _, s := range p.samples {
		var stack []string
		for _, loc := range s.locations {
			stack = append(stack, p.locations[loc]...)
		}
		out[layerOf(stack)] += s.value
	}
	return out, nil
}

// profile is the decoded subset of a pprof profile.
type profile struct {
	samples []sample
	// locations maps a location ID to its function names, innermost
	// (inlined) first.
	locations map[uint64][]string
}

type sample struct {
	locations []uint64 // leaf first
	value     int64    // the last sample value: CPU nanoseconds
}

// parseProfile decodes a gzipped (or raw) profile.proto message.
func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	var (
		strs     []string
		funcs    = map[uint64]int64{} // function ID → name string index
		locLines = map[uint64][]uint64{}
		p        = &profile{locations: map[uint64][]string{}}
	)
	err := eachField(data, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s sample
			var values []uint64
			if err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locations = appendPacked(s.locations, w, v, b)
				case 2:
					values = appendPacked(values, w, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(values) > 0 {
				s.value = int64(values[len(values)-1])
			}
			p.samples = append(p.samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			if err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locLines[id] = fns
		case 5: // function
			var id uint64
			var name int64
			if err := eachField(b, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcs[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, fns := range locLines {
		names := make([]string, 0, len(fns))
		for _, f := range fns {
			idx, ok := funcs[f]
			if !ok || idx < 0 || int(idx) >= len(strs) {
				return nil, fmt.Errorf("profile: location %d names unknown function %d", id, f)
			}
			names = append(names, strs[idx])
		}
		p.locations[id] = names
	}
	return p, nil
}

// appendPacked appends a repeated varint field that may arrive packed
// (wire type 2) or as one value per field (wire type 0).
func appendPacked(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks the fields of one protobuf message, passing varint values
// in v and length-delimited payloads in b.
func eachField(data []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		data = data[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(data); n <= 0 {
				return errTruncated
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errTruncated
			}
			data = data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errTruncated
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errTruncated
			}
			data = data[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}
