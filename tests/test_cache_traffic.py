"""A cache in nilcert earns its place by traffic: over one run of each
benchmark workload (nilbench/workloads.py), every ``functools`` cache in the
package, every ``cached_property`` of a nilcert class (the instance caches
of ``LieAlgebra`` and ``cli.Context``), and each hand-written memo
(``MEMOS``), must be read a second time.  A cache that no workload reads
twice is a guess, and fails here by name."""

import importlib
import pkgutil
from functools import cached_property

import nilcert
from nilcert import autos, cli, liecore, models

from shared import load_workloads


def nilcert_definitions():
    """(module-qualified name, value) of each top-level name that a
    nilcert module defines itself."""
    for info in pkgutil.iter_modules(nilcert.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"nilcert.{info.name}")
        for name, value in vars(module).items():
            if getattr(value, "__module__", None) == module.__name__:
                yield f"{info.name}.{name}", value


def nilcert_caches() -> dict:
    """Every ``functools`` cache defined in a nilcert module, by
    module-qualified name."""
    return {name: value for name, value in nilcert_definitions()
            if hasattr(value, "cache_info")}


def nilcert_instance_caches() -> dict:
    """Every ``cached_property`` of a class defined in a nilcert module, by
    module-qualified class and attribute name: (class, attribute)."""
    return {f"{name}.{attr}": (value, attr)
            for name, value in nilcert_definitions() if isinstance(value, type)
            for attr, prop in vars(value).items()
            if isinstance(prop, cached_property)}


class CountedProperty:
    """A stand-in for a ``cached_property`` that keeps its value in the
    same instance dict slot and counts the reads that find it stored.  It
    defines ``__set__``, so as a data descriptor it sees every read, not
    only the first."""

    def __init__(self, prop: cached_property):
        self.prop, self.hits = prop, 0

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        stored = vars(obj)
        name = self.prop.attrname
        if name in stored:
            self.hits += 1
        else:
            stored[name] = self.prop.func(obj)
        return stored[name]

    def __set__(self, obj, value):
        vars(obj)[self.prop.attrname] = value


def count_instance_cache_hits(monkeypatch) -> dict[str, CountedProperty]:
    """A counting stand-in for each instance cache, in place from here on."""
    counted = {}
    for name, (cls, attr) in nilcert_instance_caches().items():
        counted[name] = CountedProperty(vars(cls)[attr])
        monkeypatch.setattr(cls, attr, counted[name])
    return counted


#: the hand-written memos: (class, method, the attribute that holds the
#: memo dict keyed by the method's argument)
MEMOS = ((cli.Context, "element", "_elements"),
         (autos.HookFreeKernel, "pencil", "_pencil"))


def count_memo_hits(monkeypatch) -> dict[str, int]:
    """The reads of each memo in ``MEMOS`` that find their key stored, by
    qualified method name, from here on."""
    hits = {}
    for cls, method, memo in MEMOS:
        name = f"{cls.__module__.rsplit('.', 1)[-1]}.{cls.__name__}.{method}"
        hits[name] = 0

        def counted(self, key, _read=getattr(cls, method), _memo=memo,
                    _name=name):
            hits[_name] += key in getattr(self, _memo)
            return _read(self, key)
        monkeypatch.setattr(cls, method, counted)
    return hits


def test_every_cache_is_read_twice_by_the_workloads(capsys, monkeypatch):
    hits = count_memo_hits(monkeypatch)
    props = count_instance_cache_hits(monkeypatch)
    assert {"liecore.LieAlgebra.adapted", "cli.Context.data"} <= set(props)
    caches = nilcert_caches()
    assert {"models.build_W", "autos.hook_free_derivations"} <= set(caches)
    for cache in caches.values():
        cache.cache_clear()
    workloads = load_workloads()
    # verify_default: one verify of the pinned suite at one pool seed
    cli.main(workloads.verify_argv(workloads.verify_pool()[0]))
    capsys.readouterr()
    # p_scan: one pass over the hook targets
    for p in workloads.p_pool():
        cli.run(list(workloads.P_SCAN_SUITE),
                cli.Config(p=models.validate_p(p)))
    # user_algebras: one pass over the documents, as the benchmark runs them
    for entry in workloads.algebra_pool():
        try:
            L = liecore.lie_algebra_from_json(entry["text"])
        except ValueError:
            continue
        liecore.lower_central_series(L)
        liecore.center(L)
        autos.derivation_algebra(L).space.basis_vectors()
    unread = {name: cache.cache_info() for name, cache in caches.items()
              if not cache.cache_info().hits}
    unread.update((name, n) for name, n in hits.items() if not n)
    unread.update((name, prop.hits) for name, prop in props.items()
                  if not prop.hits)
    assert unread == {}
    # and reading K's pencil left the column index it reads as it was built
    K = autos.hook_free_derivations()
    assert K._columns == autos.HookFreeKernel(K)._columns
