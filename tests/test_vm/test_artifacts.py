"""Bytecode in cached artifacts: pack/unpack, shared identity, hits."""

import pathlib

from repro.frontend.irbuilder import compile_source
from repro.pipeline.cache import (
    ArtifactCache,
    cache_key,
    make_entry,
    pack_artifact,
    unpack_artifact,
)
from repro.pipeline.compiler import compile_and_profile, measure_performance
from repro.pipeline.config import DBDS
from repro.vm import VirtualMachine, translate_program

SOURCE = """
fn main(n: int) -> int {
  var i: int = 0;
  var s: int = 0;
  while (i < n) { s = s + i * i; i = i + 1; }
  return s;
}
"""


def compiled():
    return compile_and_profile(SOURCE, "main", [[5]], DBDS)


def test_pack_unpack_roundtrip_preserves_shared_identity():
    program, _ = compiled()
    bytecode = translate_program(program)
    restored_program, restored_bytecode = unpack_artifact(
        pack_artifact(program, bytecode)
    )
    fn = restored_bytecode.function("main")
    # One pickle: the bytecode's entry block IS a block of the restored
    # program, not a disconnected copy.
    assert fn.entry_block is restored_program.function("main").entry
    vm = VirtualMachine(restored_bytecode)
    assert vm.run("main", [10]).value == 285


def test_unpack_tolerates_legacy_program_only_blob():
    import pickle

    program, _ = compiled()
    restored, bytecode = unpack_artifact(pickle.dumps(program))
    assert bytecode is None
    assert restored.function("main") is not None


def test_cache_entry_carries_bytecode(tmp_path: pathlib.Path):
    program, report = compiled()
    cache = ArtifactCache(tmp_path)
    key = cache_key(SOURCE, DBDS, entry="main")
    cache.put(
        make_entry(key, program, report, bytecode=translate_program(program))
    )
    entry = cache.get(key)
    assert entry is not None
    bytecode = entry.bytecode()
    assert bytecode is not None
    cycles, results = measure_performance(
        entry.program(), "main", [[10]], engine="vm", bytecode=bytecode
    )
    assert results[0].value == 285


def test_entry_without_bytecode_returns_none(tmp_path: pathlib.Path):
    program, report = compiled()
    cache = ArtifactCache(tmp_path)
    key = cache_key(SOURCE, DBDS, entry="main")
    cache.put(make_entry(key, program, report))
    assert cache.get(key).bytecode() is None


def test_measure_performance_engines_agree():
    program, _ = compiled()
    ref_cycles, ref_results = measure_performance(program, "main", [[12]])
    vm_cycles, vm_results = measure_performance(
        program, "main", [[12]], engine="vm"
    )
    assert ref_cycles == vm_cycles
    assert ref_results[0].value == vm_results[0].value
    assert ref_results[0].steps == vm_results[0].steps


def test_unoptimized_program_artifact_roundtrip():
    program = compile_source(SOURCE)
    restored, bytecode = unpack_artifact(
        pack_artifact(program, translate_program(program))
    )
    assert VirtualMachine(bytecode).run("main", [6]).value == 55
