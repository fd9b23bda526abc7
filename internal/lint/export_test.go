package lint

// LoadDir parses and type-checks the non-test Go files of a single
// directory under the given import path. It is the entry point for fixture
// corpora that live outside the module's package tree (testdata).
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	if p, ok := l.cache[importPath]; ok {
		return p, nil
	}
	p, err := l.loadDir(dir, importPath)
	if err != nil {
		return nil, err
	}
	l.cache[importPath] = p
	return p, nil
}
