package lockgraph

import (
	"go/ast"
	"go/token"
	"go/types"

	"vkgraph/internal/analysis"
)

// blockEvent is one ordered lock or blocking-operation occurrence inside a
// function body, for the write-critical-section rule.
type blockEvent struct {
	pos token.Pos
	// op is Lock, RLock, Unlock, or RUnlock for mutex events, "" for
	// blocking-operation events.
	op string
	// key identifies the mutex by the printed receiver expression, so
	// c.mu.Lock pairs with c.mu.Unlock.
	key string
	// deferred marks a deferred unlock: the section runs to function end.
	deferred bool
	// desc describes a potentially blocking operation.
	desc string
}

// checkBlocking reports potentially blocking operations made while a write
// lock (on any mutex) is held, scanning fd's body in source order.
func checkBlocking(pass *analysis.Pass, fd *ast.FuncDecl) {
	writeHeld := make(map[string]bool)
	for _, ev := range blockEvents(pass, fd) {
		switch ev.op {
		case "Lock", "RLock":
			writeHeld[ev.key] = ev.op == "Lock"
		case "Unlock", "RUnlock":
			// A deferred unlock keeps the section open to function end,
			// which is how an unreleased lock already behaves.
			if !ev.deferred {
				delete(writeHeld, ev.key)
			}
		case "":
			for key, w := range writeHeld {
				if w {
					pass.Reportf(ev.pos, "%s inside the %s write-critical section; move it outside the lock", ev.desc, key)
					break
				}
			}
		}
	}
}

// blockEvents gathers mutex and blocking-operation events of fd in source
// order (ast.Inspect is depth-first in source order within one body).
func blockEvents(pass *analysis.Pass, fd *ast.FuncDecl) []blockEvent {
	var events []blockEvent
	add := func(ev blockEvent) { events = append(events, ev) }
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			if ev, ok := mutexEvent(pass, n.Call); ok {
				ev.deferred = true
				add(ev)
				return false
			}
		case *ast.CallExpr:
			if ev, ok := mutexEvent(pass, n); ok {
				add(ev)
				return true
			}
			if desc, ok := blockingCall(pass, n); ok {
				add(blockEvent{pos: n.Pos(), desc: desc})
			}
		case *ast.SendStmt:
			add(blockEvent{pos: n.Pos(), desc: "channel send"})
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				add(blockEvent{pos: n.Pos(), desc: "channel receive"})
			}
		case *ast.SelectStmt:
			add(blockEvent{pos: n.Pos(), desc: "select statement"})
			// Do not descend: the select's cases are themselves blocking ops.
			return false
		case *ast.RangeStmt:
			if t, ok := pass.TypesInfo.Types[n.X]; ok {
				if _, isChan := t.Type.Underlying().(*types.Chan); isChan {
					add(blockEvent{pos: n.Pos(), desc: "range over channel"})
				}
			}
		}
		return true
	})
	return events
}

// mutexEvent recognizes x.Lock / RLock / Unlock / RUnlock on any mutex.
func mutexEvent(pass *analysis.Pass, call *ast.CallExpr) (blockEvent, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return blockEvent{}, false
	}
	op := sel.Sel.Name
	switch op {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return blockEvent{}, false
	}
	if t, ok := pass.TypesInfo.Types[sel.X]; !ok || !isMutexType(t.Type) {
		return blockEvent{}, false
	}
	return blockEvent{pos: call.Pos(), op: op, key: exprKey(sel.X)}, true
}

// blockingCall recognizes calls that may block or perform I/O.
func blockingCall(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	obj := pass.ObjectOf(call.Fun)
	if obj == nil {
		return "", false
	}
	name := obj.Name()
	// The package-path table below is for package-level functions only:
	// a method on an os/net type (say (*os.File).Name, a field read) must
	// not inherit its package's blocking reputation.
	fn, isFunc := obj.(*types.Func)
	if isFunc && fn.Type().(*types.Signature).Recv() == nil {
		if pkg := obj.Pkg(); pkg != nil {
			switch pkg.Path() {
			case "time":
				if name == "Sleep" {
					return "time.Sleep", true
				}
			case "net", "net/http", "os/exec", "io/ioutil":
				return pkg.Path() + "." + name + " call (I/O)", true
			case "os":
				switch name {
				case "Getenv", "LookupEnv", "Getpid", "Environ", "Expand", "ExpandEnv":
					return "", false
				}
				return "os." + name + " call (I/O)", true
			case "fmt":
				switch name {
				case "Print", "Println", "Printf", "Fprint", "Fprintln", "Fprintf":
					return "fmt." + name + " call (I/O)", true
				}
			case "log":
				return "log." + name + " call (I/O)", true
			}
		}
	}
	// Method calls: WaitGroup.Wait, Cond.Wait, and obs registry flushes.
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	t, ok := pass.TypesInfo.Types[sel.X]
	if !ok {
		return "", false
	}
	rt := t.Type
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok {
		return "", false
	}
	tobj := named.Obj()
	tpkg := ""
	if tobj.Pkg() != nil {
		tpkg = tobj.Pkg().Name()
	}
	if tpkg == "sync" && name == "Wait" {
		return "sync." + tobj.Name() + ".Wait", true
	}
	if tpkg == "obs" && tobj.Name() == "Registry" &&
		(name == "Snapshot" || name == "WritePrometheus") {
		return "obs.Registry." + name + " (takes the registry lock)", true
	}
	return "", false
}
