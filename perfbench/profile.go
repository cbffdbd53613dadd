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

// cpuBuckets are the packages whose flat CPU share is reported: the
// kernel layers with no boundary visible from outside the engine, plus
// the Go runtime split into GC/allocation, map access and the rest.
var cpuBuckets = []string{
	"field", "poly", "rs", "sim", "proto", "wire", "proc", "triples", "sba", "acast", "consist",
	"runtime.gc", "runtime.map", "runtime.other",
}

// repoPackages maps the last element of a repository package path to
// its bucket.
var repoPackages = map[string]bool{
	"field": true, "poly": true, "rs": true, "sim": true, "proto": true, "wire": true,
	"proc": true, "triples": true, "sba": true, "acast": true, "consist": true,
}

// cpuShares reduces a gzipped pprof CPU profile to the flat share of
// samples per bucket: each sample counts for the innermost function of
// its leaf frame (inlined frames included).
func cpuShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		total += s.count
		fn, ok := p.leafFunc[s.leaf]
		if !ok {
			continue
		}
		if b := bucketOf(p.strings[p.funcName[fn]]); b != "" {
			counts[b] += s.count
		}
	}
	shares := make(map[string]float64, len(cpuBuckets))
	for _, b := range cpuBuckets {
		if total > 0 {
			shares[b] = float64(counts[b]) / float64(total)
		} else {
			shares[b] = 0
		}
	}
	return shares, nil
}

// bucketOf maps a profile function name to its bucket ("" = not
// reported).
func bucketOf(name string) string {
	pkg := name
	if i := strings.IndexByte(pkg, '['); i >= 0 {
		pkg = pkg[:i]
	}
	slash := strings.LastIndexByte(pkg, '/')
	if dot := strings.IndexByte(pkg[slash+1:], '.'); dot >= 0 {
		pkg = pkg[:slash+1+dot]
	}
	if strings.HasPrefix(pkg, "repro/") {
		base := pkg[strings.LastIndexByte(pkg, '/')+1:]
		if repoPackages[base] {
			return base
		}
		return ""
	}
	switch {
	case pkg == "internal/runtime/maps":
		return "runtime.map"
	case pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime/") || strings.HasPrefix(pkg, "runtime/internal/"):
		fn := strings.ToLower(name[len(pkg):])
		if strings.HasPrefix(fn, ".map") || strings.Contains(fn, "hash") || strings.HasPrefix(fn, ".memeq") {
			return "runtime.map"
		}
		for _, w := range gcWords {
			if strings.Contains(fn, w) {
				return "runtime.gc"
			}
		}
		return "runtime.other"
	}
	return ""
}

// gcWords mark runtime functions that belong to garbage collection or
// allocation (mallocgc, mark/scan/sweep workers, write barriers, span
// and heap management).
var gcWords = []string{
	"gc", "malloc", "mark", "sweep", "scan", "span", "heap", "mcache", "mcentral", "alloc",
	"greyobject", "findobject", "nextfree", "wbbuf", "barrier", "memclr", "newobject",
	"makeslice", "growslice", "newarray", "pagecache", "typepointers",
}

type sample struct {
	leaf  uint64 // location id of the leaf frame
	count int64
}

type profile struct {
	samples  []sample
	leafFunc map[uint64]uint64 // location id -> innermost function id
	funcName map[uint64]int64  // function id -> string table index
	strings  []string
}

// parseProfile decodes the parts of the pprof protobuf encoding that
// flat shares need: Profile.sample (2), Profile.location (4),
// Profile.function (5) and Profile.string_table (6).
func parseProfile(b []byte) (*profile, error) {
	p := &profile{leafFunc: map[uint64]uint64{}, funcName: map[uint64]int64{}}
	err := eachField(b, func(num int, wire int, v uint64, sub []byte) error {
		switch num {
		case 2:
			return p.parseSample(sub)
		case 4:
			return p.parseLocation(sub)
		case 5:
			return p.parseFunction(sub)
		case 6:
			p.strings = append(p.strings, string(sub))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for fn, s := range p.funcName {
		if s < 0 || s >= int64(len(p.strings)) {
			return nil, fmt.Errorf("function %d names string %d of %d", fn, s, len(p.strings))
		}
	}
	return p, nil
}

func (p *profile) parseSample(b []byte) error {
	var locs, vals []uint64
	err := eachField(b, func(num int, wire int, v uint64, sub []byte) error {
		switch num {
		case 1:
			return appendRepeated(&locs, wire, v, sub)
		case 2:
			return appendRepeated(&vals, wire, v, sub)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if len(locs) == 0 || len(vals) == 0 {
		return nil
	}
	// Value 0 of a Go CPU profile is the sample count.
	p.samples = append(p.samples, sample{leaf: locs[0], count: int64(vals[0])})
	return nil
}

func (p *profile) parseLocation(b []byte) error {
	var id, fn uint64
	haveFn := false
	err := eachField(b, func(num int, wire int, v uint64, sub []byte) error {
		switch num {
		case 1:
			id = v
		case 4:
			if haveFn {
				// Later lines are the callers an inlined leaf sits in.
				return nil
			}
			return eachField(sub, func(num int, wire int, v uint64, _ []byte) error {
				if num == 1 {
					fn, haveFn = v, true
				}
				return nil
			})
		}
		return nil
	})
	if err == nil && haveFn {
		p.leafFunc[id] = fn
	}
	return err
}

func (p *profile) parseFunction(b []byte) error {
	var id uint64
	var name int64
	err := eachField(b, func(num int, wire int, v uint64, sub []byte) error {
		switch num {
		case 1:
			id = v
		case 2:
			name = int64(v)
		}
		return nil
	})
	if err == nil {
		p.funcName[id] = name
	}
	return err
}

// appendRepeated appends a repeated varint field in either its packed
// (wire type 2) or unpacked (wire type 0) encoding.
func appendRepeated(dst *[]uint64, wire int, v uint64, sub []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(sub) > 0 {
		x, n := binary.Uvarint(sub)
		if n <= 0 {
			return errBadProto
		}
		*dst = append(*dst, x)
		sub = sub[n:]
	}
	return nil
}

var errBadProto = errors.New("malformed protobuf")

// eachField walks the top-level fields of one protobuf message: varint
// fields arrive in v, length-delimited ones in sub; fixed-width fields
// are skipped.
func eachField(b []byte, fn func(num int, wire int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errBadProto
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errBadProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errBadProto
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errBadProto
			}
			sub = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errBadProto
			}
			b = b[4:]
			continue
		default:
			return errBadProto
		}
		if err := fn(num, wire, v, sub); err != nil {
			return err
		}
	}
	return nil
}
