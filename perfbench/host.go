package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// describe records the host and the code a run measured: cores, effective
// GOMAXPROCS, the Go version, the git commit of root when root is a
// repository's top level ("unknown" otherwise) and a SHA-256 over root's
// Go sources, which identifies the code in either case.
func describe(inf *info, root string) error {
	inf.Cores = runtime.NumCPU()
	inf.GOMAXPROCS = runtime.GOMAXPROCS(0) // the children inherit this process's environment
	inf.GoVersion = runtime.Version()
	inf.Commit = commit(root)
	sum, err := sourceDigest(root)
	inf.SourceSHA256 = sum
	return err
}

func commit(root string) string {
	abs, err := filepath.Abs(root)
	if err != nil {
		return "unknown"
	}
	top, err := exec.Command("git", "-C", abs, "rev-parse", "--show-toplevel").Output()
	if err != nil || strings.TrimSpace(string(top)) != abs {
		return "unknown"
	}
	head, err := exec.Command("git", "-C", abs, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(head))
}

// sourceDigest hashes the path and content of every .go and go.mod file
// under root, in lexical order, skipping hidden directories.
func sourceDigest(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, _ := filepath.Rel(root, path) // path is under root by construction
		io.WriteString(h, rel+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	return hex.EncodeToString(h.Sum(nil)), err
}
