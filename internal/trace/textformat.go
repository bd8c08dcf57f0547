package trace

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Text archive format ("pvtt", version 1) — a line-oriented, greppable
// sibling of the binary PVTR format, for interop with scripts and for
// hand-writing test fixtures:
//
//	pvtt 1
//	name "cosmo-specs"
//	region 0 "main" user function
//	metric 0 "PAPI_TOT_CYC" "cycles" accumulated
//	proc 0 "Process 0"
//	e 0 120 enter 0
//	e 0 450 metric 0 1250
//	e 0 500 send 1 7 65536
//	e 0 900 leave 0
//	end
//
// Names are Go-quoted strings; all other fields are space-separated
// tokens. Events must appear in per-rank time order (the reader
// validates references; ordering is checked by Trace.Validate).

const textMagic = "pvtt"

// WriteText encodes tr in the pvtt text format.
func WriteText(w io.Writer, tr *Trace) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	fmt.Fprintf(bw, "%s %d\n", textMagic, formatVersion)
	fmt.Fprintf(bw, "name %s\n", strconv.Quote(tr.Name))
	for _, r := range tr.Regions {
		fmt.Fprintf(bw, "region %d %s %s %s\n", r.ID, strconv.Quote(r.Name), r.Paradigm, r.Role)
	}
	for _, m := range tr.Metrics {
		fmt.Fprintf(bw, "metric %d %s %s %s\n", m.ID, strconv.Quote(m.Name), strconv.Quote(m.Unit), m.Mode)
	}
	for i := range tr.Procs {
		fmt.Fprintf(bw, "proc %d %s\n", i, strconv.Quote(tr.Procs[i].Proc.Name))
	}
	for rank := range tr.Procs {
		for _, ev := range tr.Procs[rank].Events {
			switch ev.Kind {
			case KindEnter:
				fmt.Fprintf(bw, "e %d %d enter %d\n", rank, ev.Time, ev.Region)
			case KindLeave:
				fmt.Fprintf(bw, "e %d %d leave %d\n", rank, ev.Time, ev.Region)
			case KindMetric:
				fmt.Fprintf(bw, "e %d %d metric %d %s\n", rank, ev.Time, ev.Metric,
					strconv.FormatFloat(ev.Value, 'g', -1, 64))
			case KindSend:
				fmt.Fprintf(bw, "e %d %d send %d %d %d\n", rank, ev.Time, ev.Peer, ev.Tag, ev.Bytes)
			case KindRecv:
				fmt.Fprintf(bw, "e %d %d recv %d %d %d\n", rank, ev.Time, ev.Peer, ev.Tag, ev.Bytes)
			default:
				return formatf("rank %d: unknown event kind %d", rank, ev.Kind)
			}
		}
	}
	fmt.Fprintln(bw, "end")
	return bw.Flush()
}

// paradigmFromString inverts Paradigm.String.
func paradigmFromString(s string) (Paradigm, bool) {
	for p := ParadigmUser; p <= ParadigmSystem; p++ {
		if p.String() == s {
			return p, true
		}
	}
	return 0, false
}

func roleFromString(s string) (RegionRole, bool) {
	for r := RoleFunction; r <= RoleInitFinalize; r++ {
		if r.String() == s {
			return r, true
		}
	}
	return 0, false
}

func modeFromString(s string) (MetricMode, bool) {
	for m := MetricAccumulated; m <= MetricAbsolute; m++ {
		if m.String() == s {
			return m, true
		}
	}
	return 0, false
}

// textScanner tokenizes one line: quoted strings become single tokens.
func splitTokens(line string) ([]string, error) {
	var tokens []string
	rest := strings.TrimSpace(line)
	for rest != "" {
		if rest[0] == '"' {
			unquoted, tail, err := unquotePrefix(rest)
			if err != nil {
				return nil, err
			}
			tokens = append(tokens, unquoted)
			rest = strings.TrimLeft(tail, " \t")
			continue
		}
		idx := strings.IndexAny(rest, " \t")
		if idx < 0 {
			tokens = append(tokens, rest)
			break
		}
		tokens = append(tokens, rest[:idx])
		rest = strings.TrimLeft(rest[idx:], " \t")
	}
	return tokens, nil
}

// unquotePrefix unquotes the leading Go string literal of s and returns
// the remainder.
func unquotePrefix(s string) (string, string, error) {
	for i := 1; i < len(s); i++ {
		if s[i] == '"' && s[i-1] != '\\' {
			unq, err := strconv.Unquote(s[:i+1])
			if err != nil {
				return "", "", err
			}
			return unq, s[i+1:], nil
		}
	}
	return "", "", fmt.Errorf("unterminated string: %s", s)
}

// ReadText decodes a pvtt archive.
func ReadText(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	lineNo := 0
	next := func() ([]string, bool, error) {
		for sc.Scan() {
			lineNo++
			line := strings.TrimSpace(sc.Text())
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			tokens, err := splitTokens(line)
			if err != nil {
				return nil, false, formatf("line %d: %v", lineNo, err)
			}
			return tokens, true, nil
		}
		return nil, false, sc.Err()
	}

	header, ok, err := next()
	if err != nil || !ok {
		return nil, formatf("missing header: %v", err)
	}
	if len(header) != 2 || header[0] != textMagic || header[1] != strconv.Itoa(formatVersion) {
		return nil, formatf("bad header %v", header)
	}

	tr := &Trace{}
	procNames := map[int]string{}
	maxRank := -1
	sawEnd := false

	for {
		tokens, ok, err := next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		switch tokens[0] {
		case "name":
			if len(tokens) != 2 {
				return nil, formatf("line %d: name wants 1 argument", lineNo)
			}
			tr.Name = tokens[1]
		case "region":
			if len(tokens) != 5 {
				return nil, formatf("line %d: region wants 4 arguments", lineNo)
			}
			id, err := strconv.Atoi(tokens[1])
			if err != nil || id != len(tr.Regions) {
				return nil, formatf("line %d: region IDs must be dense, got %q", lineNo, tokens[1])
			}
			p, ok := paradigmFromString(tokens[3])
			if !ok {
				return nil, formatf("line %d: unknown paradigm %q", lineNo, tokens[3])
			}
			role, ok := roleFromString(tokens[4])
			if !ok {
				return nil, formatf("line %d: unknown role %q", lineNo, tokens[4])
			}
			tr.AddRegion(tokens[2], p, role)
		case "metric":
			if len(tokens) != 5 {
				return nil, formatf("line %d: metric wants 4 arguments", lineNo)
			}
			id, err := strconv.Atoi(tokens[1])
			if err != nil || id != len(tr.Metrics) {
				return nil, formatf("line %d: metric IDs must be dense, got %q", lineNo, tokens[1])
			}
			mode, ok := modeFromString(tokens[4])
			if !ok {
				return nil, formatf("line %d: unknown metric mode %q", lineNo, tokens[4])
			}
			tr.AddMetric(tokens[2], tokens[3], mode)
		case "proc":
			if len(tokens) != 3 {
				return nil, formatf("line %d: proc wants 2 arguments", lineNo)
			}
			rank, err := strconv.Atoi(tokens[1])
			if err != nil || rank < 0 {
				return nil, formatf("line %d: bad rank %q", lineNo, tokens[1])
			}
			procNames[rank] = tokens[2]
			if rank > maxRank {
				maxRank = rank
			}
		case "e":
			if len(tr.Procs) == 0 {
				// Materialize the process table on the first event.
				if maxRank < 0 {
					return nil, formatf("line %d: event before any proc declaration", lineNo)
				}
				tr.Procs = make([]ProcessTrace, maxRank+1)
				for i := range tr.Procs {
					name := procNames[i]
					if name == "" {
						name = fmt.Sprintf("Process %d", i)
					}
					tr.Procs[i].Proc = Process{Rank: Rank(i), Name: name}
				}
			}
			if err := parseTextEvent(tr, tokens, lineNo); err != nil {
				return nil, err
			}
		case "end":
			sawEnd = true
		default:
			return nil, formatf("line %d: unknown directive %q", lineNo, tokens[0])
		}
		if sawEnd {
			break
		}
	}
	if !sawEnd {
		return nil, formatf("missing end marker")
	}
	if len(tr.Procs) == 0 && maxRank >= 0 {
		tr.Procs = make([]ProcessTrace, maxRank+1)
		for i := range tr.Procs {
			name := procNames[i]
			if name == "" {
				name = fmt.Sprintf("Process %d", i)
			}
			tr.Procs[i].Proc = Process{Rank: Rank(i), Name: name}
		}
	}
	return tr, nil
}

func parseTextEvent(tr *Trace, tokens []string, lineNo int) error {
	if len(tokens) < 4 {
		return formatf("line %d: event too short", lineNo)
	}
	rank, err := strconv.Atoi(tokens[1])
	if err != nil || rank < 0 || rank >= len(tr.Procs) {
		return formatf("line %d: bad event rank %q", lineNo, tokens[1])
	}
	t, err := strconv.ParseInt(tokens[2], 10, 64)
	if err != nil {
		return formatf("line %d: bad timestamp %q", lineNo, tokens[2])
	}
	args := tokens[4:]
	atoi := func(s string) (int64, error) { return strconv.ParseInt(s, 10, 64) }
	switch tokens[3] {
	case "enter", "leave":
		if len(args) != 1 {
			return formatf("line %d: %s wants 1 argument", lineNo, tokens[3])
		}
		reg, err := atoi(args[0])
		if err != nil || !tr.ValidRegion(RegionID(reg)) {
			return formatf("line %d: bad region %q", lineNo, args[0])
		}
		if tokens[3] == "enter" {
			tr.Append(Rank(rank), Enter(t, RegionID(reg)))
		} else {
			tr.Append(Rank(rank), Leave(t, RegionID(reg)))
		}
	case "metric":
		if len(args) != 2 {
			return formatf("line %d: metric wants 2 arguments", lineNo)
		}
		id, err := atoi(args[0])
		if err != nil || id < 0 || int(id) >= len(tr.Metrics) {
			return formatf("line %d: bad metric %q", lineNo, args[0])
		}
		v, err := strconv.ParseFloat(args[1], 64)
		if err != nil {
			return formatf("line %d: bad metric value %q", lineNo, args[1])
		}
		tr.Append(Rank(rank), Sample(t, MetricID(id), v))
	case "send", "recv":
		if len(args) != 3 {
			return formatf("line %d: %s wants 3 arguments", lineNo, tokens[3])
		}
		peer, err1 := atoi(args[0])
		tag, err2 := atoi(args[1])
		bytes, err3 := atoi(args[2])
		if err1 != nil || err2 != nil || err3 != nil || peer < 0 || int(peer) >= len(tr.Procs) {
			return formatf("line %d: bad message fields %v", lineNo, args)
		}
		if tokens[3] == "send" {
			tr.Append(Rank(rank), Send(t, Rank(peer), int32(tag), bytes))
		} else {
			tr.Append(Rank(rank), Recv(t, Rank(peer), int32(tag), bytes))
		}
	default:
		return formatf("line %d: unknown event kind %q", lineNo, tokens[3])
	}
	return nil
}

// WriteTextFile writes tr to path in the pvtt text format.
func WriteTextFile(path string, tr *Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteText(f, tr); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadTextFile reads a pvtt archive from path.
func ReadTextFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadText(f)
}

// ReadAny reads a trace archive from r, auto-detecting the binary PVTR
// and text pvtt formats by their leading magic bytes — the entry point
// for in-memory archives (HTTP uploads). Use ReadAnyLimit for untrusted
// streams.
func ReadAny(r io.Reader) (*Trace, error) { return ReadAnyLimit(r, 0) }

// ReadAnyLimit is ReadAny reading at most limit bytes; an archive
// running past the cap fails with an error satisfying
// errors.Is(err, ErrTooLarge). limit <= 0 means no cap.
func ReadAnyLimit(r io.Reader, limit int64) (*Trace, error) {
	var cr *cappedReader
	if limit > 0 {
		cr = &cappedReader{r: r, n: limit}
		r = cr
	}
	tr, err := readAny(r, "stream")
	if err != nil && cr != nil && cr.tripped {
		return nil, fmt.Errorf("%w (limit %d bytes)", ErrTooLarge, limit)
	}
	return tr, err
}

func readAny(r io.Reader, label string) (*Trace, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	magic, err := br.Peek(4)
	if err != nil {
		return nil, formatf("reading magic of %s: %v", label, err)
	}
	switch string(magic) {
	case formatMagic:
		return readArchive(br)
	case textMagic:
		return ReadText(br)
	}
	return nil, formatf("%s: unknown archive format (magic %q)", label, magic)
}

// ReadAnyFile reads the trace archive at path without validating it: a
// binary PVTR or text pvtt file, auto-detected by its leading magic
// bytes, or a directory archive.
func ReadAnyFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadOpenFile(f)
}

// ReadOpenFile is ReadAnyFile for an already-opened archive. The
// file-or-directory decision is made by statting the handle, not the
// path, so a path swapped between open and stat cannot route the handle
// to the wrong decoder.
func ReadOpenFile(f *os.File) (*Trace, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if fi.IsDir() {
		return ReadDir(f.Name())
	}
	return readAny(f, f.Name())
}
