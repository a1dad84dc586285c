"""Test oracles: the Python implementations the C kernels are held to,
and the slower statements of two Python fast paths.

Every kernel in ``src/`` (``frames/_kernel.c``, ``decoders/_unionfind.c``,
``decoders/_blossom.c``) has exactly one implementation there.  The
plain Python or numpy statement of what each must compute lives here,
and the tests compare the two bit for bit:

* :mod:`oracles.frames` — the numpy frame executor
  (:func:`~oracles.frames.exec_numpy`, one handler per op of ``code``,
  framed by :func:`~oracles.frames.decode` as the kernel frames it), which
  ``repro_frames_run`` must match in record words, frames, log-weights,
  depolarize counts and every lane's generator state; and the reference
  pass replayed on :class:`~repro.stabilizer.simulator.TableauSimulator`
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
"""
