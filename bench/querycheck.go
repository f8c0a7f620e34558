package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"

	"repro/internal/store"
	"repro/internal/topology"
)

// Reply shapes, as far as the checks need them. Floats are pointers because
// the API renders NaN as null.
type windowReply struct {
	T     int64    `json:"t"`
	Count int64    `json:"count"`
	Min   *float64 `json:"min"`
	Max   *float64 `json:"max"`
	Mean  *float64 `json:"mean"`
	Std   *float64 `json:"std"`
	Sum   *float64 `json:"sum"`
}

type rangeReply struct {
	Points []struct {
		T int64    `json:"t"`
		V *float64 `json:"v"`
	} `json:"points"`
	Windows []windowReply `json:"windows"`
}

type rollupReply struct {
	Series []struct {
		Group   int           `json:"group"`
		Windows []windowReply `json:"windows"`
	} `json:"series"`
}

// verifyPerClass is how many replies of each class are recomputed from the
// archive's rows.
const verifyPerClass = 3

// replyChecker checks every reply of a query workload: status, shape,
// identical payloads for identical URLs, and — for a few of each class — the
// values against a naive reduction over store.ReadDay rows.
type replyChecker struct {
	archive string
	sz      sizes
	start   int64
	floor   *topology.Floor
	groups  map[string]int // rollup group -> number of non-empty series
	seen    map[string][sha256.Size]byte
	keep    map[string][]keptReply // class -> replies to recompute
	tables  map[string]*store.Table
}

type keptReply struct {
	op   queryOp
	body []byte
}

func newReplyChecker(archive string, sz sizes) (*replyChecker, error) {
	tcfg, err := topology.PresetScaled("", sz.ArchiveNodes)
	if err != nil {
		return nil, err
	}
	floor, err := topology.New(tcfg)
	if err != nil {
		return nil, err
	}
	c := &replyChecker{
		archive: archive, sz: sz, start: archiveStart(), floor: floor,
		groups: map[string]int{"fleet": 1},
		seen:   map[string][sha256.Size]byte{},
		keep:   map[string][]keptReply{},
		tables: map[string]*store.Table{},
	}
	cabs, msbs := map[int]bool{}, map[int]bool{}
	for i := 0; i < sz.ArchiveNodes; i++ {
		cabs[c.groupOf("cabinet", int64(i))] = true
		msbs[c.groupOf("msb", int64(i))] = true
	}
	c.groups["cabinet"], c.groups["msb"] = len(cabs), len(msbs)
	return c, nil
}

func (c *replyChecker) groupOf(group string, node int64) int {
	switch group {
	case "cabinet":
		return c.floor.Cabinet(topology.NodeID(node))
	case "msb":
		return int(c.floor.MSBOf(topology.NodeID(node)))
	}
	return 0
}

// all checks one repetition's replies and returns how many were correct.
// Every reply is an attempted operation; any defect is a failed one.
func (c *replyChecker) all(res *runResult, ops []queryOp, replies []reply) (good int) {
	for i, r := range replies {
		res.attempt(1)
		if err := c.one(ops[i], r); err != nil {
			res.fail("%s %s: %v", ops[i].Class, ops[i].URL, err)
			continue
		}
		good++
	}
	return good
}

func (c *replyChecker) one(op queryOp, r reply) error {
	if r.err != nil {
		return r.err
	}
	if r.status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", r.status, r.body)
	}
	key := bodyKey(r.body)
	if first, ok := c.seen[op.URL]; ok {
		if first != key {
			return fmt.Errorf("payload differs from an earlier reply to the same URL")
		}
		return nil // identical to a payload already checked
	}
	if err := c.shape(op, r.body); err != nil {
		return err
	}
	c.seen[op.URL] = key
	if op.Kind != "" && len(c.keep[op.Class]) < verifyPerClass {
		c.keep[op.Class] = append(c.keep[op.Class], keptReply{op, r.body})
	}
	return nil
}

// shape decodes a first-seen payload and checks it carries the expected
// number of points, windows and series.
func (c *replyChecker) shape(op queryOp, body []byte) error {
	switch op.Kind {
	case "range":
		var rr rangeReply
		if err := json.Unmarshal(body, &rr); err != nil {
			return err
		}
		if op.Step > 0 {
			if want := int((op.T1 - op.T0) / op.Step); len(rr.Windows) != want {
				return fmt.Errorf("%d windows, want %d", len(rr.Windows), want)
			}
		} else if want := int((op.T1 - op.T0) / archiveStepS); len(rr.Points) != want {
			return fmt.Errorf("%d points, want %d", len(rr.Points), want)
		}
	case "rollup":
		var rr rollupReply
		if err := json.Unmarshal(body, &rr); err != nil {
			return err
		}
		if len(rr.Series) != c.groups[op.Group] {
			return fmt.Errorf("%d series, want %d", len(rr.Series), c.groups[op.Group])
		}
		want := int((op.T1 - op.T0) / op.Step)
		for _, s := range rr.Series {
			if len(s.Windows) != want {
				return fmt.Errorf("group %d has %d windows, want %d", s.Group, len(s.Windows), want)
			}
		}
	default:
		return c.plainShape(op, body)
	}
	return nil
}

func (c *replyChecker) plainShape(op queryOp, body []byte) error {
	switch op.Class {
	case clsDatasets:
		var dr struct {
			Datasets []struct {
				Name string `json:"name"`
				Rows int64  `json:"rows"`
			} `json:"datasets"`
		}
		if err := json.Unmarshal(body, &dr); err != nil {
			return err
		}
		want := int64(c.sz.ArchiveNodes) * int64(c.sz.ArchiveDays) * daySec / archiveStepS
		for _, d := range dr.Datasets {
			if d.Name == nodeDataset {
				if d.Rows != want {
					return fmt.Errorf("node-power has %d rows, want %d", d.Rows, want)
				}
				return nil
			}
		}
		return fmt.Errorf("no node-power dataset listed")
	case clsEdges:
		var er struct {
			ThresholdMW *float64          `json:"threshold_mw"`
			Edges       []json.RawMessage `json:"edges"`
		}
		if err := json.Unmarshal(body, &er); err != nil {
			return err
		}
		if er.ThresholdMW == nil || er.Edges == nil {
			return fmt.Errorf("edge report lacks threshold_mw or edges")
		}
	default:
		var obj map[string]json.RawMessage
		if err := json.Unmarshal(body, &obj); err != nil {
			return err
		}
		if len(obj) == 0 {
			return fmt.Errorf("empty reply")
		}
	}
	return nil
}

// verifyAgainstArchive recomputes the kept replies from the archive's rows.
// Each is one more attempted operation.
func (c *replyChecker) verifyAgainstArchive(res *runResult) {
	for _, class := range sortedKeys(c.keep) {
		for _, k := range c.keep[class] {
			res.attempt(1)
			if err := c.verify(k); err != nil {
				res.fail("%s %s: wrong answer: %v", class, k.op.URL, err)
			}
		}
	}
}

// table returns one decoded day of a dataset, read straight from the store.
func (c *replyChecker) table(dataset string, day int) (*store.Table, error) {
	key := fmt.Sprintf("%s/%d", dataset, day)
	if t, ok := c.tables[key]; ok {
		return t, nil
	}
	ds, err := store.NewDataset(c.archive, dataset)
	if err != nil {
		return nil, err
	}
	t, err := ds.ReadDay(day)
	if err != nil {
		return nil, err
	}
	c.tables[key] = t
	return t, nil
}

// bucket is one (group, window) cell of the naive reduction.
type bucket struct {
	group  int
	window int64
}

// rows walks the rows of op's time range in file order.
func (c *replyChecker) rows(op queryOp, fn func(t, node int64, v float64)) error {
	firstDay, lastDay := int((op.T0-c.start)/daySec), int((op.T1-1-c.start)/daySec)
	for day := firstDay; day <= lastDay; day++ {
		tab, err := c.table(op.Dataset, day)
		if err != nil {
			return err
		}
		ts, val := tab.Col("timestamp"), tab.Col(op.Column)
		if ts == nil || val == nil {
			return fmt.Errorf("archive day %d lacks timestamp or %s", day, op.Column)
		}
		var nodes []int64
		if nc := tab.Col("node"); nc != nil {
			nodes = nc.Ints
		}
		for i, t := range ts.Ints {
			if t < op.T0 || t >= op.T1 {
				continue
			}
			node := int64(-1)
			if nodes != nil {
				node = nodes[i]
			}
			if op.Node >= 0 && node != op.Node {
				continue
			}
			v := 0.0
			if val.IsInt() {
				v = float64(val.Ints[i])
			} else {
				v = val.Floats[i]
			}
			fn(t, node, v)
		}
	}
	return nil
}

func (c *replyChecker) verify(k keptReply) error {
	op := k.op
	if op.Kind == "range" && op.Step == 0 {
		var rr rangeReply
		if err := json.Unmarshal(k.body, &rr); err != nil {
			return err
		}
		i, wrong := 0, -1
		err := c.rows(op, func(t, _ int64, v float64) {
			if wrong < 0 && (i >= len(rr.Points) || rr.Points[i].T != t || !sameValue(rr.Points[i].V, v)) {
				wrong = i
			}
			i++
		})
		switch {
		case err != nil:
			return err
		case wrong >= 0:
			return fmt.Errorf("raw point %d differs from the archive's row", wrong)
		case i != len(rr.Points):
			return fmt.Errorf("%d raw points, the archive's rows give %d", len(rr.Points), i)
		}
		return nil
	}
	cells := map[bucket][]float64{}
	err := c.rows(op, func(t, node int64, v float64) {
		b := bucket{window: t - t%op.Step}
		if op.Kind == "rollup" {
			b.group = c.groupOf(op.Group, node)
		}
		cells[b] = append(cells[b], v)
	})
	if err != nil {
		return err
	}
	got := map[bucket]windowReply{}
	if op.Kind == "range" {
		var rr rangeReply
		if err := json.Unmarshal(k.body, &rr); err != nil {
			return err
		}
		for _, w := range rr.Windows {
			got[bucket{window: w.T}] = w
		}
	} else {
		var rr rollupReply
		if err := json.Unmarshal(k.body, &rr); err != nil {
			return err
		}
		for _, s := range rr.Series {
			for _, w := range s.Windows {
				got[bucket{group: s.Group, window: w.T}] = w
			}
		}
	}
	if len(got) != len(cells) {
		return fmt.Errorf("%d cells, the archive's rows give %d", len(got), len(cells))
	}
	keys := make([]bucket, 0, len(cells))
	for b := range cells {
		keys = append(keys, b)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].group != keys[j].group {
			return keys[i].group < keys[j].group
		}
		return keys[i].window < keys[j].window
	})
	for _, b := range keys {
		w, ok := got[b]
		if !ok {
			return fmt.Errorf("group %d window %d missing", b.group, b.window)
		}
		if err := compareCell(op.Kind, w, cells[b]); err != nil {
			return fmt.Errorf("group %d window %d: %w", b.group, b.window, err)
		}
	}
	return nil
}

// compareCell checks one window against its values: count, min and max
// exactly; mean, std and sum to 1e-9 relative.
func compareCell(kind string, w windowReply, vals []float64) error {
	mn, mx, sum := math.Inf(1), math.Inf(-1), 0.0
	for _, v := range vals {
		mn, mx, sum = math.Min(mn, v), math.Max(mx, v), sum+v
	}
	mean := sum / float64(len(vals))
	ss := 0.0
	for _, v := range vals {
		ss += (v - mean) * (v - mean)
	}
	std := math.Sqrt(ss / float64(len(vals)))
	switch {
	case w.Count != int64(len(vals)):
		return fmt.Errorf("count %d, want %d", w.Count, len(vals))
	case !sameValue(w.Min, mn) || !sameValue(w.Max, mx):
		return fmt.Errorf("min/max %v/%v, want %v/%v", deref(w.Min), deref(w.Max), mn, mx)
	case !relClose(deref(w.Mean), mean, 1e-9):
		return fmt.Errorf("mean %v, want %v", deref(w.Mean), mean)
	case kind == "range" && !relClose(deref(w.Std), std, 1e-9):
		return fmt.Errorf("std %v, want %v", deref(w.Std), std)
	case kind == "rollup" && !relClose(deref(w.Sum), sum, 1e-9):
		return fmt.Errorf("sum %v, want %v", deref(w.Sum), sum)
	}
	return nil
}

// deref reads an optional JSON number: absent means 0 (omitempty), which is
// also what null (NaN) decodes to — NaN never occurs in a complete archive.
func deref(p *float64) float64 {
	if p == nil {
		return 0
	}
	return *p
}

// sameValue reports whether the reply carries exactly v (bit for bit).
func sameValue(p *float64, v float64) bool {
	return math.Float64bits(deref(p)) == math.Float64bits(v)
}
