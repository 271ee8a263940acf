"""A small, self-contained genetic-algorithm engine (the DEAP substitute).

The engine is deliberately generic: it knows nothing about pin assignments.
It evolves a population of genotypes (lists of integers) under user-supplied
``sample``, ``evaluate``, ``crossover`` and ``mutate`` callables, with
tournament selection, elitism, a hall of fame, and per-generation statistics.
Fitness is minimised (the paper's fitness is synthesised area).

Evaluation is batched per generation: the population is deduplicated by
genotype, cached fitnesses are reused, and only the unseen genotypes are
evaluated — concurrently across worker processes when ``jobs > 1`` (the
``evaluate`` callable must then be picklable).  Because the evaluation
function is required to be pure and results are applied in deterministic
order, a seeded run produces bit-identical results for every ``jobs``
setting.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..parallel import WorkerPool

__all__ = ["GAParameters", "GenerationStats", "GAResult", "GeneticAlgorithm"]

Genotype = List[int]


@dataclass
class GAParameters:
    """Hyper-parameters of the genetic algorithm."""

    population_size: int = 24
    generations: int = 40
    crossover_probability: float = 0.7
    mutation_probability: float = 0.35
    tournament_size: int = 3
    elite_count: int = 2
    seed: int = 1

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise ValueError("population_size must be at least 2")
        if self.generations < 1:
            raise ValueError("generations must be at least 1")
        if not 0.0 <= self.crossover_probability <= 1.0:
            raise ValueError("crossover_probability must be in [0, 1]")
        if not 0.0 <= self.mutation_probability <= 1.0:
            raise ValueError("mutation_probability must be in [0, 1]")
        if self.tournament_size < 1:
            raise ValueError("tournament_size must be at least 1")
        if not 0 <= self.elite_count < self.population_size:
            raise ValueError("elite_count must be smaller than the population")


@dataclass
class GenerationStats:
    """Fitness statistics for one generation.

    ``cache_hits`` counts fitness lookups served from the engine's genotype
    cache; ``cache_misses`` (the actual evaluation calls) is by construction
    the same number as ``evaluations_so_far`` and is exposed as a derived
    property so the two can never drift apart.
    """

    generation: int
    best: float
    average: float
    worst: float
    best_so_far: float
    evaluations_so_far: int
    cache_hits: int = 0

    @property
    def cache_misses(self) -> int:
        """Fitness requests that required an actual evaluation."""
        return self.evaluations_so_far


@dataclass
class GAResult:
    """The outcome of a GA run."""

    best_genotype: Genotype
    best_fitness: float
    history: List[GenerationStats]
    evaluations: int
    hall_of_fame: List[Tuple[Genotype, float]] = field(default_factory=list)

    @property
    def generations(self) -> int:
        """Number of generations that were run."""
        return len(self.history)


class GeneticAlgorithm:
    """Steady elitist GA with tournament selection over integer genotypes."""

    def __init__(
        self,
        sample: Callable[[random.Random], Genotype],
        evaluate: Callable[[Genotype], float],
        crossover: Callable[[Genotype, Genotype, random.Random], Tuple[Genotype, Genotype]],
        mutate: Callable[[Genotype, random.Random], Genotype],
        parameters: Optional[GAParameters] = None,
        hall_of_fame_size: int = 5,
        jobs: int = 1,
    ):
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        self._sample = sample
        self._evaluate_raw = evaluate
        self._crossover = crossover
        self._mutate = mutate
        self.parameters = parameters or GAParameters()
        self._hall_of_fame_size = hall_of_fame_size
        self.jobs = jobs
        self._fitness_cache: Dict[Tuple[int, ...], float] = {}
        self._evaluations = 0
        self._cache_hits = 0

    # -------------------------------------------------------------- #
    # Fitness with memoisation
    # -------------------------------------------------------------- #
    def _evaluate_batch(
        self, genotypes: Sequence[Genotype], pool: Optional[WorkerPool]
    ) -> List[Tuple[Genotype, float]]:
        """Evaluate one generation: dedupe, reuse the cache, batch the rest.

        Unseen genotypes are evaluated in first-occurrence order (possibly
        across worker processes); the returned population preserves the input
        order, so results are identical to evaluating serially one by one.
        """
        keys = [tuple(genotype) for genotype in genotypes]
        unseen: List[Tuple[int, ...]] = []
        scheduled = set()
        for key in keys:
            if key not in self._fitness_cache and key not in scheduled:
                scheduled.add(key)
                unseen.append(key)
        self._cache_hits += len(keys) - len(unseen)
        if unseen:
            if pool is not None and len(unseen) > 1:
                results = pool.map([list(key) for key in unseen])
            else:
                results = [self._evaluate_raw(list(key)) for key in unseen]
            for key, fitness in zip(unseen, results):
                self._fitness_cache[key] = float(fitness)
                self._evaluations += 1
        return [
            (genotype, self._fitness_cache[key])
            for genotype, key in zip(genotypes, keys)
        ]

    @property
    def evaluations(self) -> int:
        """Number of distinct fitness evaluations performed so far."""
        return self._evaluations

    @property
    def cache_hits(self) -> int:
        """Number of fitness lookups served from the genotype cache."""
        return self._cache_hits

    def cached_fitnesses(self) -> List[Tuple[Tuple[int, ...], float]]:
        """All (genotype key, fitness) pairs the engine has evaluated.

        With ``jobs > 1`` the evaluations happened in worker processes; this
        is how callers feed the results back into their own shared caches.
        """
        return list(self._fitness_cache.items())

    # -------------------------------------------------------------- #
    # Selection
    # -------------------------------------------------------------- #
    def _tournament(
        self,
        population: List[Tuple[Genotype, float]],
        rng: random.Random,
    ) -> Genotype:
        contenders = rng.sample(population, min(self.parameters.tournament_size, len(population)))
        winner = min(contenders, key=lambda item: item[1])
        return list(winner[0])

    # -------------------------------------------------------------- #
    # Main loop
    # -------------------------------------------------------------- #
    def run(
        self,
        initial_population: Optional[Sequence[Genotype]] = None,
        progress: Optional[Callable[[GenerationStats], None]] = None,
    ) -> GAResult:
        """Run the GA and return the best genotype found.

        ``initial_population`` optionally seeds (part of) generation zero;
        missing individuals are drawn from ``sample``.  ``progress`` is called
        once per generation with that generation's statistics.
        """
        params = self.parameters
        rng = random.Random(params.seed)

        genotypes: List[Genotype] = [list(g) for g in (initial_population or [])]
        genotypes = genotypes[: params.population_size]
        while len(genotypes) < params.population_size:
            genotypes.append(self._sample(rng))

        pool: Optional[WorkerPool] = None
        if self.jobs > 1:
            pool = WorkerPool(self._evaluate_raw, jobs=self.jobs)
        try:
            population = self._evaluate_batch(genotypes, pool)
            history: List[GenerationStats] = []
            hall: List[Tuple[Genotype, float]] = []

            best_so_far = min(population, key=lambda item: item[1])
            self._update_hall(hall, population)
            history.append(self._stats(0, population, best_so_far[1]))
            if progress is not None:
                progress(history[-1])

            for generation in range(1, params.generations + 1):
                offspring: List[Genotype] = []
                # Elitism: carry over the best individuals unchanged.
                elite = sorted(population, key=lambda item: item[1])[: params.elite_count]
                offspring.extend(list(genotype) for genotype, _ in elite)

                while len(offspring) < params.population_size:
                    parent_a = self._tournament(population, rng)
                    parent_b = self._tournament(population, rng)
                    if rng.random() < params.crossover_probability:
                        child_a, child_b = self._crossover(parent_a, parent_b, rng)
                    else:
                        child_a, child_b = list(parent_a), list(parent_b)
                    if rng.random() < params.mutation_probability:
                        child_a = self._mutate(child_a, rng)
                    if rng.random() < params.mutation_probability:
                        child_b = self._mutate(child_b, rng)
                    offspring.append(child_a)
                    if len(offspring) < params.population_size:
                        offspring.append(child_b)

                population = self._evaluate_batch(offspring, pool)
                candidate = min(population, key=lambda item: item[1])
                if candidate[1] < best_so_far[1]:
                    best_so_far = (list(candidate[0]), candidate[1])
                self._update_hall(hall, population)
                history.append(self._stats(generation, population, best_so_far[1]))
                if progress is not None:
                    progress(history[-1])
        finally:
            if pool is not None:
                pool.close()

        return GAResult(
            best_genotype=list(best_so_far[0]),
            best_fitness=best_so_far[1],
            history=history,
            evaluations=self._evaluations,
            hall_of_fame=list(hall),
        )

    # -------------------------------------------------------------- #
    # Bookkeeping
    # -------------------------------------------------------------- #
    def _stats(
        self,
        generation: int,
        population: List[Tuple[Genotype, float]],
        best_so_far: float,
    ) -> GenerationStats:
        fitnesses = [fitness for _, fitness in population]
        return GenerationStats(
            generation=generation,
            best=min(fitnesses),
            average=sum(fitnesses) / len(fitnesses),
            worst=max(fitnesses),
            best_so_far=best_so_far,
            evaluations_so_far=self._evaluations,
            cache_hits=self._cache_hits,
        )

    def _update_hall(
        self,
        hall: List[Tuple[Genotype, float]],
        population: List[Tuple[Genotype, float]],
    ) -> None:
        for genotype, fitness in population:
            if any(tuple(genotype) == tuple(existing) for existing, _ in hall):
                continue
            hall.append((list(genotype), fitness))
        hall.sort(key=lambda item: item[1])
        del hall[self._hall_of_fame_size:]
