"""The paper's contribution: the graph abstraction for dynamic capacities.

* :mod:`~repro.core.penalties` — penalty functions for fake links
  (Section 4.2: "we suggest using the current link traffic as a penalty
  function, but the TE operator can set the penalty values arbitrarily");
* :mod:`~repro.core.augmentation` — Algorithm 1: G -> G' with fake
  parallel links per upgradable wavelength, and fake-link removal when
  SNR drops;
* :mod:`~repro.core.gadgets` — the Figure-8 construction that keeps a
  single unsplittable path at the upgraded rate;
* :mod:`~repro.core.translation` — step 3 of the Theorem-1 procedure:
  the TE output on G' read back as capacity-change decisions plus flow
  paths on the real topology;
* :mod:`~repro.core.theorem` — the executable Theorem-1 equivalence
  check (min-cost max-flow on G' == max-flow on G at full capacity);
* :mod:`~repro.core.policies` — the run/walk/crawl adaptation spectrum;
* :mod:`~repro.core.controller` — the closed loop: telemetry -> augment
  -> unmodified TE -> translate -> BVT reconfiguration.
"""
