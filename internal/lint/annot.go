package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
)

// The annotation language. Annotations are comment directives (no space
// after the //, like //go:noinline) attached to the line they precede, the
// line they trail, or — for func declarations — the doc comment.
const (
	// DirOrdered marks a map range whose iteration order is proven not to
	// reach any fingerprint (each iteration's effect is commutative, or the
	// results are sorted before use).
	DirOrdered = "ordered"
	// DirEventCtx marks a function that may only be called from event
	// context; func-typed arguments of a call to it run in event context.
	DirEventCtx = "eventctx"
	// DirEventHandler declares that the annotated function executes in event
	// context (delivery callbacks, continuation stages, barrier hooks).
	DirEventHandler = "eventhandler"
	// DirEventSpawn marks a function callable from anywhere that runs its
	// func-typed arguments in event context (Schedule, At, PushKeyed).
	DirEventSpawn = "eventspawn"
	// DirWallClock marks a reviewed wall-clock read that feeds host-side
	// metrics only, never virtual state or a fingerprint.
	DirWallClock = "wallclock"
	// DirCore marks a file as part of the deterministic core regardless of
	// its import path (used by test fixtures).
	DirCore = "core"
	// DirPayload marks a field or method of a pooled struct that yields a
	// view of a buffer the struct keeps across release; a local holding such
	// a view dies with the release (poolown).
	DirPayload = "payload"
)

const dirPrefix = "//dsmlint:"

// directives indexes every //dsmlint: comment of a package by file and line.
type directives struct {
	// byLine maps filename -> line -> directive names on that line.
	byLine     map[string]map[int][]string
	coreMarked bool
}

// parseDirective extracts the directive name from one comment, or "".
// Anything after the first space is a free-form reason and is ignored.
func parseDirective(text string) string {
	if !strings.HasPrefix(text, dirPrefix) {
		return ""
	}
	name := strings.TrimPrefix(text, dirPrefix)
	if i := strings.IndexAny(name, " \t"); i >= 0 {
		name = name[:i]
	}
	return name
}

// directives lazily builds the package's directive index.
func (p *Pass) directives() *directives {
	if p.dirs != nil {
		return p.dirs
	}
	d := &directives{byLine: map[string]map[int][]string{}}
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				name := parseDirective(c.Text)
				if name == "" {
					continue
				}
				if name == DirCore {
					d.coreMarked = true
				}
				pos := p.Fset.Position(c.Pos())
				lines := d.byLine[pos.Filename]
				if lines == nil {
					lines = map[int][]string{}
					d.byLine[pos.Filename] = lines
				}
				lines[pos.Line] = append(lines[pos.Line], name)
			}
		}
	}
	p.dirs = d
	return d
}

// Annotated reports whether directive name is attached to the statement at
// pos: on the same line (trailing comment) or on the line directly above.
func (p *Pass) Annotated(pos token.Pos, name string) bool {
	d := p.directives()
	pp := p.Fset.Position(pos)
	lines := d.byLine[pp.Filename]
	if lines == nil {
		return false
	}
	for _, l := range [2]int{pp.Line, pp.Line - 1} {
		for _, n := range lines[l] {
			if n == name {
				return true
			}
		}
	}
	return false
}

// funcAnnotated reports whether a func declaration carries the directive in
// its doc comment or on the line above its func keyword.
func funcAnnotated(fd *ast.FuncDecl, name string) bool {
	if fd.Doc != nil {
		for _, c := range fd.Doc.List {
			if parseDirective(c.Text) == name {
				return true
			}
		}
	}
	return false
}

// FuncAnnotated reports whether the declaration carries the directive,
// checking the doc comment and the immediately preceding line (the doc
// comment covers the common case; the line check covers annotations
// separated from the doc block by a blank comment line).
func (p *Pass) FuncAnnotated(fd *ast.FuncDecl, name string) bool {
	return funcAnnotated(fd, name) || p.Annotated(fd.Pos(), name)
}

// funcKey names a function for cross-package annotation lookup:
// "Recv.Name" for methods (pointer receivers stripped), "Name" otherwise.
func funcKey(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr: // generic receiver T[P]
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x.Name + "." + fd.Name.Name
		default:
			return fd.Name.Name
		}
	}
}

// harvestAnnotations parses (syntax-only) every non-test .go file of dir and
// returns the set of "directive funcKey" entries found, e.g.
// "eventctx Kernel.Defer". Results are cached per import path by the caller.
func harvestAnnotations(fset *token.FileSet, dir string) map[string]bool {
	out := map[string]bool{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return out
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			for _, d := range [3]string{DirEventCtx, DirEventHandler, DirEventSpawn} {
				if funcAnnotated(fd, d) {
					out[d+" "+funcKey(fd)] = true
				}
			}
		}
	}
	return out
}

// annotationsFor returns the harvested annotation set of pkgPath, resolving
// the directory through SrcDir. Same-package lookups use the loaded ASTs
// instead (see eventctx.go), so this is only consulted for imports.
func (p *Pass) annotationsFor(pkgPath string) map[string]bool {
	if got, ok := p.harvest[pkgPath]; ok {
		return got
	}
	var out map[string]bool
	if dir := p.srcDirFor(pkgPath); dir != "" {
		out = harvestAnnotations(token.NewFileSet(), dir)
	} else {
		out = map[string]bool{}
	}
	p.harvest[pkgPath] = out
	return out
}

func (p *Pass) srcDirFor(pkgPath string) string {
	if p.SrcDir == nil {
		return ""
	}
	return p.SrcDir(pkgPath)
}
