"""Test oracles: the Python implementations the C kernels are held to,
the slower statements of two Python fast paths, and the reference
simulators and circuit checks only the tests use.

Every kernel in ``src/`` (``frames/_kernel.c``, ``decoders/_unionfind.c``,
``decoders/_blossom.c``) has exactly one implementation there.  The
plain Python or numpy statement of what each must compute lives here,
and the tests compare the two bit for bit:

* :mod:`oracles.frames` — the numpy frame executor
  (:func:`~oracles.frames.exec_numpy`, one handler per op of ``code``,
  framed by :func:`~oracles.frames.decode` as the kernel frames it), which
  ``repro_frames_run`` must match in record words, frames, log-weights,
  depolarize counts and every lane's generator state; and the reference
  pass replayed on :class:`~oracles.chp.TableauSimulator`
  (:func:`~oracles.frames.replay_reference`), which
  ``repro_frames_reference`` must match in every answer and the
  generator state it leaves.
* :mod:`oracles.decoders` — union-find decoded one pattern at a time
  (:func:`~oracles.decoders.uf_decode_pattern`), whose parity
  ``repro_uf_grow`` + ``repro_uf_peel`` must give; MWPM's bitmask
  recursion (:func:`~oracles.decoders.dp_match`), whose cost and parity
  ``repro_dp_match`` must give, ties included; and NetworkX's blossom
  (:func:`~oracles.decoders.nx_pairs` / :func:`~oracles.decoders.nx_match`),
  whose very pairs ``repro_blossom_match`` must return.
* :mod:`oracles.tableau` — the numpy batched tableau
  (:class:`~oracles.tableau.BatchTableauSimulator`) and the site-table
  interpreter that walks noise on it (:func:`~oracles.tableau.numpy_walk`,
  :func:`~oracles.tableau.apply_sites`), whose records, log-weights and
  generator state ``repro_tableau_run`` must give.
* :mod:`oracles.decoders` also holds the decode wrapper's pattern dedup
  as ``np.unique(axis=0)`` (:func:`~oracles.decoders.axis0_unique_keys`),
  whose rows, order, inverse and cache keys
  :func:`~repro.decoders.batch.unique_keys` must give.
* :mod:`oracles.identity` — ``canonical_task`` on ``dataclasses.asdict``
  (:func:`~oracles.identity.asdict_canonical_task`), whose dict and task
  key the store's field walk must give.
* :mod:`oracles.chp` — the single-shot CHP tableau
  (:class:`~oracles.chp.Tableau`, :class:`~oracles.chp.TableauSimulator`,
  :func:`~oracles.chp.run_shot`): the reference pass replay runs on it,
  and each shot of the numpy batched tableau must equal it row for row.
* :mod:`oracles.statevector` — the dense statevector simulator
  (:class:`~oracles.statevector.StatevectorSimulator`), which the
  single-shot tableau's stabilizers and records must agree with.
* :mod:`oracles.circuits` — random Clifford circuits
  (:func:`~oracles.circuits.random_clifford_circuit`) for the
  property tests, and the transpiler's checks: every two-qubit gate on
  an edge (:func:`~oracles.circuits.check_connectivity`) and equal
  records before and after routing (:func:`~oracles.circuits.records_equal`).
"""
