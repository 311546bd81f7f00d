package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"
)

// This file is the S3-style object-store ResultStore: a flat namespace
// of immutable objects behind GET/PUT/HEAD, so a fleet of allarm-serve
// shards shares one result store without a shared filesystem. The
// protocol is deliberately a subset of what any object service speaks:
//
//	GET  <base>/<name>   200 + body | 404
//	PUT  <base>/<name>   201 created | 200 overwritten
//	HEAD <base>/<name>   200 | 404
//	GET  <base>/         200 {"objects": N}
//
// ObjectHandler serves it from a local directory (the "minio in a
// box" for tests, CI and single-host fleets); NewObjectStore consumes
// it — or any real object endpoint honouring the same verbs — as a
// ResultStore. Entries are the same key-verified diskEntry JSON the
// directory store writes, so a store can be served over HTTP today and
// mounted as a directory tomorrow without migration.

// maxObjectBytes bounds one stored result object (PUT body); results
// are small (a few KiB of metrics JSON), so this is generous.
const maxObjectBytes = 4 << 20

// NewObjectStore opens an S3-style ResultStore at base: an
// http(s):// URL of an object API (ObjectHandler or compatible), or a
// local directory path, which gives the same on-disk layout as
// NewDiskStore. token, when non-empty, is sent as a bearer credential
// on every request (object endpoints behind a Guard).
func NewObjectStore(base, token string) (ResultStore, error) {
	if strings.HasPrefix(base, "http://") || strings.HasPrefix(base, "https://") {
		u, err := url.Parse(base)
		if err != nil {
			return nil, fmt.Errorf("object store: %w", err)
		}
		h := &httpObjects{
			base:  strings.TrimRight(u.String(), "/"),
			token: token,
			client: &http.Client{
				Timeout: 30 * time.Second,
			},
		}
		return newKeyedStore(h)
	}
	return NewDiskStore(base)
}

// httpObjects is the HTTP objectBackend (the client half of the object
// protocol).
type httpObjects struct {
	base   string
	token  string
	client *http.Client
}

func (h *httpObjects) do(method, name string, body io.Reader) (*http.Response, error) {
	req, err := http.NewRequest(method, h.base+"/"+name, body)
	if err != nil {
		return nil, err
	}
	if h.token != "" {
		req.Header.Set("Authorization", "Bearer "+h.token)
	}
	return h.client.Do(req)
}

func (h *httpObjects) get(name string) ([]byte, bool, error) {
	resp, err := h.do(http.MethodGet, name, nil)
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		data, err := io.ReadAll(io.LimitReader(resp.Body, maxObjectBytes))
		if err != nil {
			return nil, false, err
		}
		return data, true, nil
	case http.StatusNotFound:
		return nil, false, nil
	default:
		return nil, false, fmt.Errorf("object store: GET %s: %s", name, resp.Status)
	}
}

func (h *httpObjects) put(name string, data []byte) (bool, error) {
	resp, err := h.do(http.MethodPut, name, bytes.NewReader(data))
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusCreated:
		return true, nil
	case http.StatusOK, http.StatusNoContent:
		return false, nil
	default:
		return false, fmt.Errorf("object store: PUT %s: %s", name, resp.Status)
	}
}

func (h *httpObjects) count() (int, error) {
	resp, err := h.do(http.MethodGet, "", nil)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("object store: list: %s", resp.Status)
	}
	var v struct {
		Objects int `json:"objects"`
	}
	if err := readJSON(resp.Body, &v); err != nil {
		return 0, err
	}
	return v.Objects, nil
}

// ObjectHandler serves the object protocol from a local directory —
// the server half NewObjectStore's http client speaks. Mount it behind
// any mux (allarm-serve exposes it at /v1/objects/ when -object-serve
// is set) to turn one node's disk into the fleet's shared result
// store. Writes are atomic (temp file + rename) and objects immutable
// in practice (content-addressed names), so concurrent PUTs of the
// same name are benign — last writer wins with identical bytes.
func ObjectHandler(dir string) (http.Handler, error) {
	fs, err := newFSObjects(dir)
	if err != nil {
		return nil, err
	}
	return &objectHandler{fs: fs}, nil
}

type objectHandler struct {
	fs fsObjects
}

// validObjectName rejects anything that could escape the directory or
// hide from the *.json count: names are content hashes plus extension,
// nothing else.
func validObjectName(name string) bool {
	if name == "" || len(name) > 128 || !strings.HasSuffix(name, ".json") {
		return false
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '.', r == '-':
		default:
			return false
		}
	}
	return !strings.Contains(name, "..")
}

func (h *objectHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/")
	if name == "" {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.WriteHeader(http.StatusMethodNotAllowed)
			return
		}
		n, err := h.fs.count()
		if err != nil {
			WriteError(w, http.StatusInternalServerError, err)
			return
		}
		WriteJSON(w, map[string]int{"objects": n})
		return
	}
	if !validObjectName(name) {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("invalid object name %q", name))
		return
	}
	switch r.Method {
	case http.MethodGet, http.MethodHead:
		data, ok, err := h.fs.get(name)
		if err != nil {
			WriteError(w, http.StatusInternalServerError, err)
			return
		}
		if !ok {
			WriteError(w, http.StatusNotFound, fmt.Errorf("no object %q", name))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", fmt.Sprint(len(data)))
		if r.Method == http.MethodGet {
			w.Write(data)
		}
	case http.MethodPut:
		data, err := io.ReadAll(io.LimitReader(r.Body, maxObjectBytes+1))
		if err != nil {
			WriteError(w, http.StatusBadRequest, err)
			return
		}
		if len(data) > maxObjectBytes {
			WriteError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("object exceeds %d bytes", maxObjectBytes))
			return
		}
		created, err := h.fs.put(name, data)
		if err != nil {
			WriteError(w, http.StatusInternalServerError, err)
			return
		}
		if created {
			w.WriteHeader(http.StatusCreated)
		} else {
			w.WriteHeader(http.StatusOK)
		}
	default:
		w.WriteHeader(http.StatusMethodNotAllowed)
	}
}

// readJSON decodes one JSON value from r (small helper shared by the
// object client and the object handler tests).
func readJSON(r io.Reader, v any) error {
	data, err := io.ReadAll(io.LimitReader(r, maxObjectBytes))
	if err != nil {
		return err
	}
	if len(data) == 0 {
		return fmt.Errorf("empty response body")
	}
	return json.Unmarshal(data, v)
}
