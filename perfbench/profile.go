package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuProfile is the part of a pprof CPU profile the attribution needs:
// each sample's stack as function names, innermost first, and its CPU
// time.
type cpuProfile struct {
	samples []profSample
}

type profSample struct {
	stack []string
	nanos int64
}

// parseCPUProfile decodes the gzipped profile.proto that runtime/pprof
// writes. Only samples, locations, functions and the string table are
// read; every other field is skipped.
func parseCPUProfile(data []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples []rawSample
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcs   = map[uint64]int64{}    // function id -> name string index
		strs    []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s rawSample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					ids, err := packedVarints(wire, v, b)
					s.locs = append(s.locs, ids...)
					return err
				case 2:
					vals, err := packedVarints(wire, v, b)
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &cpuProfile{}
	for _, s := range samples {
		if len(s.values) < 2 {
			return nil, errors.New("profile: sample without a cpu/nanoseconds value")
		}
		var stack []string
		for _, l := range s.locs {
			for _, f := range locs[l] {
				if i := funcs[f]; i >= 0 && int(i) < len(strs) {
					stack = append(stack, strs[i])
				}
			}
		}
		p.samples = append(p.samples, profSample{stack: stack, nanos: s.values[1]})
	}
	return p, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number and wire type, and its varint value or length-delimited bytes.
func eachField(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// packedVarints decodes a repeated varint field in either encoding.
func packedVarints(wire int, v uint64, b []byte) ([]uint64, error) {
	if wire == 0 {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return nil, errors.New("bad packed varint")
		}
		out = append(out, x)
		b = b[n:]
	}
	return out, nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// repoModule is the import-path root of the packages the attribution
// charges by name.
const repoModule = "repro/"

// funcPackage returns the import path of a profiled function name such as
// "repro/internal/sim.(*Proc).block" or "runtime.gopark".
func funcPackage(fn string) string {
	s := fn
	if i := strings.IndexAny(s, "[("); i >= 0 {
		s = s[:i]
	}
	slash := strings.LastIndex(s, "/")
	if dot := strings.Index(s[slash+1:], "."); dot >= 0 {
		return s[:slash+1+dot]
	}
	return s
}

// layerOf names the layer a repository package belongs to: the last
// element of its import path ("repro/internal/sim" is "sim",
// "repro/gb/gbd" is "gbd").
func layerOf(pkg string) string {
	return pkg[strings.LastIndex(pkg, "/")+1:]
}

func isRuntimePkg(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/")
}

// handoffEntries are the runtime functions through which a kernel process
// hands the baton to the next one: channel operations and the scheduler
// work they trigger.
var handoffEntries = map[string]bool{
	"runtime.chansend": true, "runtime.chansend1": true,
	"runtime.chanrecv": true, "runtime.chanrecv1": true, "runtime.chanrecv2": true,
	"runtime.selectgo": true, "runtime.gopark": true, "runtime.goready": true,
	"runtime.ready": true, "runtime.park_m": true, "runtime.mcall": true,
	"runtime.schedule": true, "runtime.findRunnable": true, "runtime.futex": true,
	"runtime.futexsleep": true, "runtime.futexwakeup": true, "runtime.casgstatus": true,
	"runtime.lock2": true, "runtime.unlock2": true, "runtime.notesleep": true,
	"runtime.notewakeup": true, "runtime.wakep": true, "runtime.startm": true,
	"runtime.stopm": true, "runtime.runqget": true, "runtime.runqput": true,
	"runtime.execute": true, "runtime.gogo": true, "runtime.send": true, "runtime.recv": true,
}

// attribution is a CPU profile charged to layers.
type attribution struct {
	totalS   float64            // all samples
	layerS   map[string]float64 // layer -> seconds; sums to totalS
	noRepoS  float64            // samples with no repository frame (runtime and http buckets)
	handoffS float64            // baton handoff under the kernel (sim.handoff_cpu_s)
	samples  int
}

// attribute charges each sample to the innermost frame in a repository
// package; a stack with none goes to "http" when it passes through
// net/http and to "runtime" otherwise. A sample also counts as kernel
// handoff when its innermost frames, up to the first non-runtime one, run
// a channel or scheduler function and the stack holds an internal/sim
// frame.
func attribute(p *cpuProfile) attribution {
	a := attribution{layerS: map[string]float64{}}
	for _, s := range p.samples {
		sec := float64(s.nanos) / 1e9
		a.totalS += sec
		a.samples++
		layer := ""
		viaHTTP, underSim := false, false
		for _, fn := range s.stack {
			pkg := funcPackage(fn)
			switch {
			case layer != "":
			case pkg == "main": // this benchmark, module repro/perfbench
				layer = "perfbench"
			case strings.HasPrefix(pkg, repoModule):
				layer = layerOf(pkg)
			}
			if pkg == "net/http" {
				viaHTTP = true
			}
			if pkg == repoModule+"internal/sim" {
				underSim = true
			}
		}
		if layer == "" {
			a.noRepoS += sec
			layer = "runtime"
			if viaHTTP {
				layer = "http"
			}
		}
		a.layerS[layer] += sec
		if underSim && inHandoff(s.stack) {
			a.handoffS += sec
		}
	}
	return a
}

// inHandoff reports whether the sample's runtime leaf frames include a
// handoff entry point.
func inHandoff(stack []string) bool {
	for _, fn := range stack {
		if !isRuntimePkg(funcPackage(fn)) {
			return false
		}
		if handoffEntries[fn] {
			return true
		}
	}
	return false
}
