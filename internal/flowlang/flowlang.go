// Package flowlang implements a small line-oriented text format for
// dataflows — the "expr" of the paper's application model d(expr, R, N, t).
// It lets flows be authored in files, shipped to the service, and round-
// tripped for debugging:
//
//	# a dataflow definition
//	flow etl-1 issued=120
//	input A/0
//	op scan kind=range time=40 cpu=1 mem=0.25 reads=A/0
//	op join kind=join time=30
//	op build kind=build-index time=25 optional priority=-1 builds=idx/A/orderkey/0
//	edge scan -> join size=64
//	index A/orderkey ops=scan:94.44,join:7.44
//
// Operator names are unique identifiers; "index" lines associate a
// potential index with per-operator speedups (the N of the model).
package flowlang

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"idxflow/internal/dataflow"
)

// kindNames maps the text names to operator kinds.
var kindNames = map[string]dataflow.Kind{
	"process":     dataflow.KindProcess,
	"lookup":      dataflow.KindLookup,
	"range":       dataflow.KindRangeSelect,
	"sort":        dataflow.KindSort,
	"group":       dataflow.KindGroup,
	"join":        dataflow.KindJoin,
	"partition":   dataflow.KindPartition,
	"aggregate":   dataflow.KindAggregate,
	"build-index": dataflow.KindBuildIndex,
}

func kindName(k dataflow.Kind) string {
	for name, kk := range kindNames {
		if kk == k {
			return name
		}
	}
	return "process"
}

// ParseError reports a syntax error with its line number.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("flowlang: line %d: %s", e.Line, e.Msg)
}

// maxLine is the longest line Parse accepts, in bytes.
const maxLine = 1024 * 1024

// Parse reads one flow definition.
func Parse(r io.Reader) (*dataflow.Flow, error) {
	scanner := bufio.NewScanner(r)
	// Start small and let the scanner grow the buffer for long lines, up
	// to a 1 MB line; a longer line fails with bufio.ErrTooLong.
	scanner.Buffer(nil, maxLine)
	flow := &dataflow.Flow{Graph: dataflow.New()}
	names := make(map[string]dataflow.OpID)
	sawFlow := false
	lineNo := 0

	fail := func(format string, args ...interface{}) error {
		return &ParseError{Line: lineNo, Msg: fmt.Sprintf(format, args...)}
	}

	for scanner.Scan() {
		lineNo++
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "flow":
			if sawFlow {
				return nil, fail("duplicate flow line")
			}
			if len(fields) < 2 {
				return nil, fail("flow needs a name")
			}
			sawFlow = true
			flow.Name = fields[1]
			for _, f := range fields[2:] {
				k, v, err := splitKV(f)
				if err != nil {
					return nil, fail("%v", err)
				}
				switch k {
				case "issued":
					t, err := strconv.ParseFloat(v, 64)
					if err != nil {
						return nil, fail("bad issued %q", v)
					}
					flow.IssuedAt = t
				default:
					return nil, fail("unknown flow attribute %q", k)
				}
			}

		case "input":
			if len(fields) != 2 {
				return nil, fail("input needs exactly one path")
			}
			flow.Inputs = append(flow.Inputs, fields[1])

		case "op":
			if len(fields) < 2 {
				return nil, fail("op needs a name")
			}
			name := fields[1]
			if _, dup := names[name]; dup {
				return nil, fail("duplicate op %q", name)
			}
			op := dataflow.Operator{Name: name, CPU: 1, Memory: 0.25}
			for _, f := range fields[2:] {
				if f == "optional" {
					op.Optional = true
					continue
				}
				k, v, err := splitKV(f)
				if err != nil {
					return nil, fail("%v", err)
				}
				switch k {
				case "kind":
					kk, ok := kindNames[v]
					if !ok {
						return nil, fail("unknown kind %q", v)
					}
					op.Kind = kk
				case "time":
					op.Time, err = strconv.ParseFloat(v, 64)
				case "cpu":
					op.CPU, err = strconv.ParseFloat(v, 64)
				case "mem":
					op.Memory, err = strconv.ParseFloat(v, 64)
				case "disk":
					op.Disk, err = strconv.ParseFloat(v, 64)
				case "priority":
					op.Priority, err = strconv.Atoi(v)
				case "reads":
					op.Reads = strings.Split(v, ",")
				case "builds":
					op.BuildsIndex = v
				default:
					return nil, fail("unknown op attribute %q", k)
				}
				if err != nil {
					return nil, fail("bad value %q for %s", v, k)
				}
			}
			names[name] = flow.Graph.Add(op)

		case "edge":
			// edge <from> -> <to> [size=N]
			if len(fields) < 4 || fields[2] != "->" {
				return nil, fail("edge syntax: edge <from> -> <to> [size=N]")
			}
			from, ok := names[fields[1]]
			if !ok {
				return nil, fail("unknown op %q", fields[1])
			}
			to, ok := names[fields[3]]
			if !ok {
				return nil, fail("unknown op %q", fields[3])
			}
			size := 0.0
			for _, f := range fields[4:] {
				k, v, err := splitKV(f)
				if err != nil {
					return nil, fail("%v", err)
				}
				if k != "size" {
					return nil, fail("unknown edge attribute %q", k)
				}
				size, err = strconv.ParseFloat(v, 64)
				if err != nil {
					return nil, fail("bad size %q", v)
				}
			}
			if err := flow.Graph.Connect(from, to, size); err != nil {
				return nil, fail("%v", err)
			}

		case "index":
			// index <name> ops=<op>:<speedup>,...
			if len(fields) < 3 {
				return nil, fail("index syntax: index <name> ops=op:speedup,...")
			}
			iu := dataflow.IndexUse{Index: fields[1], Speedup: make(map[dataflow.OpID]float64)}
			for _, f := range fields[2:] {
				k, v, err := splitKV(f)
				if err != nil {
					return nil, fail("%v", err)
				}
				if k != "ops" {
					return nil, fail("unknown index attribute %q", k)
				}
				for _, pair := range strings.Split(v, ",") {
					parts := strings.SplitN(pair, ":", 2)
					if len(parts) != 2 {
						return nil, fail("index op needs op:speedup, got %q", pair)
					}
					id, ok := names[parts[0]]
					if !ok {
						return nil, fail("unknown op %q", parts[0])
					}
					sp, err := strconv.ParseFloat(parts[1], 64)
					if err != nil {
						return nil, fail("bad speedup %q", parts[1])
					}
					iu.Speedup[id] = sp
				}
			}
			flow.Indexes = append(flow.Indexes, iu)

		default:
			return nil, fail("unknown directive %q", fields[0])
		}
	}
	if err := scanner.Err(); err != nil {
		return nil, err
	}
	if !sawFlow {
		return nil, &ParseError{Line: lineNo, Msg: "missing flow line"}
	}
	if err := flow.Graph.Validate(); err != nil {
		return nil, err
	}
	return flow, nil
}

// ParseString parses a flow from a string.
func ParseString(s string) (*dataflow.Flow, error) {
	return Parse(strings.NewReader(s))
}

// Marshal renders a flow in the flowlang format; Parse(Marshal(f)) is
// structurally equivalent to f.
func Marshal(f *dataflow.Flow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "flow %s issued=%s\n", nameOrDefault(f.Name), trim(f.IssuedAt))
	for _, in := range f.Inputs {
		fmt.Fprintf(&b, "input %s\n", in)
	}
	// Stable op naming: op<ID>.
	opName := func(id dataflow.OpID) string { return fmt.Sprintf("op%d", id) }
	ids := f.Graph.Ops()
	for _, id := range ids {
		op := f.Graph.Op(id)
		fmt.Fprintf(&b, "op %s kind=%s time=%s cpu=%s mem=%s",
			opName(id), kindName(op.Kind), trim(op.Time), trim(op.CPU), trim(op.Memory))
		if op.Disk != 0 {
			fmt.Fprintf(&b, " disk=%s", trim(op.Disk))
		}
		if op.Priority != 0 {
			fmt.Fprintf(&b, " priority=%d", op.Priority)
		}
		if op.Optional {
			b.WriteString(" optional")
		}
		if len(op.Reads) > 0 {
			fmt.Fprintf(&b, " reads=%s", strings.Join(op.Reads, ","))
		}
		if op.BuildsIndex != "" {
			fmt.Fprintf(&b, " builds=%s", op.BuildsIndex)
		}
		b.WriteByte('\n')
	}
	for _, id := range ids {
		for _, e := range f.Graph.Out(id) {
			fmt.Fprintf(&b, "edge %s -> %s size=%s\n", opName(e.From), opName(e.To), trim(e.Size))
		}
	}
	for _, iu := range f.Indexes {
		ops := make([]dataflow.OpID, 0, len(iu.Speedup))
		for id := range iu.Speedup {
			ops = append(ops, id)
		}
		sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })
		pairs := make([]string, len(ops))
		for i, id := range ops {
			pairs[i] = fmt.Sprintf("%s:%s", opName(id), trim(iu.Speedup[id]))
		}
		fmt.Fprintf(&b, "index %s ops=%s\n", iu.Index, strings.Join(pairs, ","))
	}
	return b.String()
}

func nameOrDefault(name string) string {
	if name == "" {
		return "unnamed"
	}
	return name
}

func trim(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func splitKV(f string) (string, string, error) {
	i := strings.IndexByte(f, '=')
	if i <= 0 || i == len(f)-1 {
		return "", "", fmt.Errorf("expected key=value, got %q", f)
	}
	return f[:i], f[i+1:], nil
}
