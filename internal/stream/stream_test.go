package stream

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"trios/internal/qasm"
	"trios/internal/sched"
)

// passThrough is a Compiler whose stages leave every window as read, so
// the drivers must reproduce the input program; failAt makes the route
// stage fail on that window.
type passThrough struct {
	width   int
	failAt  int
	order   []int // window indices as emitted
	emitted int
}

func (p *passThrough) Begin(n int) (int, sched.GateTimes, error) {
	if n > p.width {
		return 0, sched.GateTimes{}, fmt.Errorf("needs %d qubits", n)
	}
	return p.width, sched.JohannesburgTimes(), nil
}

func (p *passThrough) Decompose(w *Window) error { return nil }
func (p *passThrough) Lower(w *Window) error     { return nil }

func (p *passThrough) Route(w *Window) error {
	if w.Index == p.failAt {
		return errors.New("route failed")
	}
	return nil
}

func (p *passThrough) Emitted(w *Window) {
	p.order = append(p.order, w.Index)
	p.emitted += len(w.Circuit.Gates)
}

func program(gates int) string {
	var b strings.Builder
	b.WriteString("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\n")
	for i := 0; i < gates; i++ {
		fmt.Fprintf(&b, "cx q[%d], q[%d];\n", i%3, (i+1)%3)
	}
	return b.String()
}

// TestDriversKeepWindowOrder: both drivers emit every window, in order,
// and write the same bytes as emitting the whole program at once.
func TestDriversKeepWindowOrder(t *testing.T) {
	src := program(1000)
	c, err := qasm.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	want, err := qasm.Emit(c)
	if err != nil {
		t.Fatal(err)
	}
	for name, drive := range map[string]func(context.Context, io.Reader, io.Writer, int, Compiler) error{
		"serial": Serial, "pipelined": Pipelined,
	} {
		p := &passThrough{width: 3, failAt: -1}
		var out bytes.Buffer
		if err := drive(context.Background(), strings.NewReader(src), &out, 64, p); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if out.String() != want {
			t.Fatalf("%s: output differs from emitting the whole program", name)
		}
		if len(p.order) != 16 || p.emitted != 1000 {
			t.Fatalf("%s: emitted %d gates in %d windows, want 1000 in 16", name, p.emitted, len(p.order))
		}
		for i, idx := range p.order {
			if idx != i {
				t.Fatalf("%s: window %d emitted in position %d", name, idx, i)
			}
		}
	}
}

// TestDriversReturnStageErrors: a failing stage and a failing Begin both
// come back from either driver, the stage error tagged with its window.
func TestDriversReturnStageErrors(t *testing.T) {
	src := program(1000)
	for _, parallel := range []bool{false, true} {
		drive := Serial
		if parallel {
			drive = Pipelined
		}
		err := drive(context.Background(), strings.NewReader(src), &bytes.Buffer{}, 64, &passThrough{width: 3, failAt: 9})
		if err == nil || err.Error() != "stream: window 9: route failed" {
			t.Fatalf("parallel=%v: err = %v, want the window 9 route error", parallel, err)
		}
		err = drive(context.Background(), strings.NewReader(src), &bytes.Buffer{}, 64, &passThrough{width: 2, failAt: -1})
		if err == nil || err.Error() != "needs 3 qubits" {
			t.Fatalf("parallel=%v: err = %v, want the Begin error", parallel, err)
		}
	}
}
