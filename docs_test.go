package dapple

// Doc-comment lint: undocumented exported symbols fail `go test` (and hence
// CI). This enforces the repository rule that `go doc` on any package reads
// like reference documentation — the equivalent of revive's exported-comment
// rule, without taking on a tool dependency.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// lintedPackages are the directories (relative to the repo root) whose
// exported surface must be fully documented. Add a directory here when its
// godoc pass lands.
var lintedPackages = []string{
	".",
	"internal/baselines",
	"internal/cliutil",
	"internal/comm",
	"internal/core",
	"internal/experiments",
	"internal/hardware",
	"internal/model",
	"internal/planner",
	"internal/schedule",
	"internal/sim",
	"internal/stats",
	"internal/strategy",
	"internal/tensor",
	"internal/trace",
	"internal/train",
	"internal/nn",
	"internal/transport",
}

// TestExportedSymbolsDocumented parses every linted package and reports each
// exported declaration that carries no doc comment, plus packages missing a
// package comment.
func TestExportedSymbolsDocumented(t *testing.T) {
	for _, dir := range lintedPackages {
		for _, problem := range lintPackageDocs(t, dir) {
			t.Error(problem)
		}
	}
}

// lintPackageDocs returns one message per missing doc comment in dir.
func lintPackageDocs(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read %s: %v", dir, err)
	}
	fset := token.NewFileSet()
	var problems []string
	pkgDocumented := false
	parsedAny := false
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		path := filepath.Join(dir, name)
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parse %s: %v", path, err)
		}
		parsedAny = true
		if f.Doc != nil {
			pkgDocumented = true
		}
		problems = append(problems, lintFileDocs(fset, path, f)...)
	}
	if parsedAny && !pkgDocumented {
		problems = append(problems, fmt.Sprintf("%s: package has no package comment", dir))
	}
	return problems
}

// lintFileDocs reports exported top-level declarations without doc comments
// in one parsed file. A documented const/var/type group covers its members;
// an undocumented group needs per-spec comments on its exported names.
func lintFileDocs(fset *token.FileSet, path string, f *ast.File) []string {
	var problems []string
	report := func(pos token.Pos, kind, name string) {
		problems = append(problems,
			fmt.Sprintf("%s: exported %s %s has no doc comment", fset.Position(pos), kind, name))
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || !receiverExported(d) {
				continue
			}
			if d.Doc == nil {
				kind := "function"
				if d.Recv != nil {
					kind = "method"
				}
				report(d.Pos(), kind, d.Name.Name)
			}
		case *ast.GenDecl:
			if d.Tok == token.IMPORT || d.Doc != nil {
				continue
			}
			for _, spec := range d.Specs {
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					if sp.Name.IsExported() && sp.Doc == nil && sp.Comment == nil {
						report(sp.Pos(), "type", sp.Name.Name)
					}
				case *ast.ValueSpec:
					if sp.Doc != nil || sp.Comment != nil {
						continue
					}
					for _, n := range sp.Names {
						if n.IsExported() {
							report(n.Pos(), d.Tok.String(), n.Name)
						}
					}
				}
			}
		}
	}
	return problems
}

// receiverExported reports whether a method's receiver type is exported (or
// the decl is a plain function); unexported types keep their methods out of
// godoc, so the lint skips them.
func receiverExported(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if idx, ok := t.(*ast.IndexExpr); ok { // generic receiver
		t = idx.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.IsExported()
	}
	return true
}

// pathCheckedDocs are the documents whose backticked repo paths must exist.
// benchmark/README.md is not listed yet: it still cites retired BENCH_*.json
// records.
var pathCheckedDocs = []string{"README.md", "ARCHITECTURE.md", ".claude/skills/verify/SKILL.md"}

var (
	backticked = regexp.MustCompile("`([^`\n]+)`")
	// rootDocName is a root-level document or record: a slash-free *.md or
	// *.json name that makes up a whole backticked span.
	rootDocName = regexp.MustCompile(`^[A-Za-z0-9_-]+\.(md|json)$`)
	// lineSuffix is a trailing ":123" or ":12-34" line reference.
	lineSuffix = regexp.MustCompile(`:[0-9][0-9–-]*$`)
)

// TestDocPathsExist fails when a document cites a repo path that does not
// exist. A backticked token is a repo path when its first segment is a
// top-level directory of the repo, or when the whole span is a root-level
// *.md or *.json name.
func TestDocPathsExist(t *testing.T) {
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	topDirs := map[string]bool{}
	for _, e := range entries {
		if e.IsDir() && e.Name() != ".git" {
			topDirs[e.Name()] = true
		}
	}
	for _, doc := range pathCheckedDocs {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range backticked.FindAllStringSubmatch(string(data), -1) {
			span := strings.TrimSpace(m[1])
			if rootDocName.MatchString(span) {
				if _, err := os.Stat(span); err != nil {
					t.Errorf("%s: `%s` does not exist", doc, span)
				}
				continue
			}
			for _, tok := range strings.Fields(span) {
				p := docPath(tok)
				first, _, nested := strings.Cut(p, "/")
				if !nested || !topDirs[first] {
					continue
				}
				if _, err := os.Stat(p); err != nil {
					t.Errorf("%s: `%s` cites %s, which does not exist", doc, span, p)
				}
			}
		}
	}
}

// docPath strips a token down to the path it names: a leading "./", closing
// punctuation (which also drops a Go package pattern's "...") and a line
// reference.
func docPath(tok string) string {
	p := strings.TrimPrefix(tok, "./")
	p = strings.TrimRight(p, ",;.)'\"")
	return lineSuffix.ReplaceAllString(p, "")
}
