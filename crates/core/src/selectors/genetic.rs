//! The genetic selector.
//!
//! "Based on the biological principles of mutation, selection, and
//! crossover … applied when the search space is too large to find optimal
//! solutions. They usually find close-to-optimal solutions in relatively
//! short amounts of time." (Section II-D(c); cf. Kratica et al.)
//!
//! Bitstring GA with tournament selection, uniform crossover, bit-flip
//! mutation and a repair operator enforcing the budget and exclusivity
//! groups. Fully deterministic under `seed`.

use rand::rngs::StdRng;
use rand::RngExt;
use smdb_common::{seeded_rng, Result};

use crate::candidate::SelectionInput;
use crate::selectors::Selector;

/// Genetic-algorithm selection.
#[derive(Debug, Clone)]
pub struct GeneticSelector {
    pub population: usize,
    pub generations: usize,
    pub mutation_rate: f64,
    pub tournament: usize,
    pub seed: u64,
}

impl Default for GeneticSelector {
    fn default() -> Self {
        GeneticSelector {
            population: 48,
            generations: 60,
            mutation_rate: 0.02,
            tournament: 3,
            seed: 0x6E6E_7E1C,
        }
    }
}

impl GeneticSelector {
    fn fitness(&self, input: &SelectionInput<'_>, genome: &[bool]) -> f64 {
        genome
            .iter()
            .enumerate()
            .filter(|(_, &g)| g)
            .map(|(i, _)| input.assessments[i].expected_desirability())
            .sum()
    }

    /// Drops genes (worst ratio first) until budget and groups hold.
    fn repair(&self, input: &SelectionInput<'_>, genome: &mut [bool], rng: &mut StdRng) {
        // Resolve group duplicates: keep the best expected desirability.
        let mut best_in_group: std::collections::HashMap<u64, usize> =
            std::collections::HashMap::new();
        for i in 0..genome.len() {
            if !genome[i] {
                continue;
            }
            if let Some(g) = input.candidates[i].exclusive_group {
                match best_in_group.get(&g).copied() {
                    None => {
                        best_in_group.insert(g, i);
                    }
                    Some(j) => {
                        if input.assessments[i].expected_desirability()
                            > input.assessments[j].expected_desirability()
                        {
                            genome[j] = false;
                            best_in_group.insert(g, i);
                        } else {
                            genome[i] = false;
                        }
                    }
                }
            }
        }
        // Budget: drop lowest-ratio genes until feasible.
        if let Some(budget) = input.memory_budget_bytes {
            let budget = budget as f64;
            let mut used: f64 = genome
                .iter()
                .enumerate()
                .filter(|(_, &g)| g)
                .map(|(i, _)| input.assessments[i].budget_weight())
                .sum();
            while used > budget + 1e-6 {
                let victim = genome
                    .iter()
                    .enumerate()
                    .filter(|(i, &g)| g && input.assessments[*i].budget_weight() > 0.0)
                    .min_by(|(a, _), (b, _)| {
                        let ra = ratio(input, *a);
                        let rb = ratio(input, *b);
                        ra.total_cmp(&rb)
                    })
                    .map(|(i, _)| i);
                match victim {
                    Some(i) => {
                        genome[i] = false;
                        used -= input.assessments[i].budget_weight();
                    }
                    None => {
                        // Only zero-weight genes left yet over budget:
                        // impossible, but guard against infinite loops.
                        let _ = rng;
                        break;
                    }
                }
            }
        }
    }
}

fn ratio(input: &SelectionInput<'_>, i: usize) -> f64 {
    let d = input.assessments[i].expected_desirability();
    let w = input.assessments[i].budget_weight();
    if w > 0.0 {
        d / w
    } else if d > 0.0 {
        f64::INFINITY
    } else {
        d
    }
}

impl Selector for GeneticSelector {
    fn name(&self) -> &str {
        "genetic"
    }

    fn select(&self, input: &SelectionInput<'_>) -> Result<Vec<usize>> {
        let n = input.candidates.len();
        if n == 0 {
            return Ok(Vec::new());
        }
        let mut rng = seeded_rng(self.seed);

        // Initial population: random subsets of the positive candidates
        // plus the greedy solution as an elite seed.
        let positive: Vec<usize> = (0..n)
            .filter(|&i| input.assessments[i].expected_desirability() > 0.0)
            .collect();
        if positive.is_empty() {
            return Ok(Vec::new());
        }
        let greedy = crate::selectors::greedy_by_score(input, |a| a.expected_desirability());
        let mut population: Vec<Vec<bool>> = Vec::with_capacity(self.population);
        let mut elite = vec![false; n];
        for &i in &greedy {
            elite[i] = true;
        }
        population.push(elite);
        while population.len() < self.population.max(2) {
            let mut genome = vec![false; n];
            for &i in &positive {
                if rng.random_bool(0.3) {
                    genome[i] = true;
                }
            }
            self.repair(input, &mut genome, &mut rng);
            population.push(genome);
        }

        let Some(mut best) = population
            .iter()
            .map(|g| (self.fitness(input, g), g.clone()))
            .max_by(|a, b| a.0.total_cmp(&b.0))
        else {
            return Ok(Vec::new());
        };

        for _gen in 0..self.generations {
            let mut next = Vec::with_capacity(population.len());
            // Elitism: carry the best genome forward.
            next.push(best.1.clone());
            while next.len() < population.len() {
                let a = self.tournament_pick(input, &population, &mut rng);
                let b = self.tournament_pick(input, &population, &mut rng);
                // Uniform crossover.
                let mut child: Vec<bool> = (0..n)
                    .map(|i| if rng.random_bool(0.5) { a[i] } else { b[i] })
                    .collect();
                // Mutation (only over positive candidates; enabling a
                // known-negative gene is never useful).
                for &i in &positive {
                    if rng.random_bool(self.mutation_rate) {
                        child[i] = !child[i];
                    }
                }
                self.repair(input, &mut child, &mut rng);
                next.push(child);
            }
            population = next;
            for g in &population {
                let f = self.fitness(input, g);
                if f > best.0 {
                    best = (f, g.clone());
                }
            }
        }

        let chosen: Vec<usize> = best
            .1
            .iter()
            .enumerate()
            .filter(|(_, &g)| g)
            .map(|(i, _)| i)
            .collect();
        debug_assert!(input.is_feasible(&chosen));
        Ok(chosen)
    }
}

impl GeneticSelector {
    fn tournament_pick<'a>(
        &self,
        input: &SelectionInput<'_>,
        population: &'a [Vec<bool>],
        rng: &mut StdRng,
    ) -> &'a Vec<bool> {
        let mut draw = || {
            let g = &population[rng.random_range(0..population.len())];
            (g, self.fitness(input, g))
        };
        let mut best = draw();
        for _ in 1..self.tournament.max(1) {
            let (g, f) = draw();
            if f > best.1 {
                best = (g, f);
            }
        }
        best.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selectors::testkit::fixture;
    use crate::selectors::{GreedySelector, OptimalSelector};

    fn value(assessments: &[crate::candidate::Assessment], chosen: &[usize]) -> f64 {
        chosen
            .iter()
            .map(|&i| assessments[i].expected_desirability())
            .sum()
    }

    #[test]
    fn finds_feasible_near_optimal_solutions() {
        // 20 items with varied ratios, budget 50% of total weight.
        let spec: Vec<(f64, i64, Option<u64>)> = (0..20)
            .map(|i| {
                let v = 5.0 + ((i * 13) % 17) as f64;
                let w = 5 + ((i * 7) % 11) as i64;
                (v, w, None)
            })
            .collect();
        let (candidates, assessments) = fixture(&spec);
        let total_w: i64 = spec.iter().map(|s| s.1).sum();
        let input = SelectionInput {
            candidates: &candidates,
            assessments: &assessments,
            memory_budget_bytes: Some(total_w / 2),
            scenario_base_costs: None,
        };
        let ga = GeneticSelector::default().select(&input).unwrap();
        let opt = OptimalSelector.select(&input).unwrap();
        let greedy = GreedySelector.select(&input).unwrap();
        assert!(input.is_feasible(&ga));
        let (vg, vo, vgr) = (
            value(&assessments, &ga),
            value(&assessments, &opt),
            value(&assessments, &greedy),
        );
        assert!(vg <= vo + 1e-9);
        // GA should at least match greedy (it is seeded with it).
        assert!(vg >= vgr - 1e-9, "ga {vg} < greedy {vgr}");
        // And be close to optimal on this small instance.
        assert!(vg >= 0.95 * vo, "ga {vg} far from optimal {vo}");
    }

    #[test]
    fn respects_groups() {
        let (candidates, assessments) =
            fixture(&[(10.0, 1, Some(3)), (12.0, 1, Some(3)), (4.0, 1, None)]);
        let input = SelectionInput {
            candidates: &candidates,
            assessments: &assessments,
            memory_budget_bytes: None,
            scenario_base_costs: None,
        };
        let chosen = GeneticSelector::default().select(&input).unwrap();
        assert!(input.is_feasible(&chosen));
        assert!(chosen.contains(&1) || chosen.contains(&0));
        assert!(!(chosen.contains(&0) && chosen.contains(&1)));
    }

    #[test]
    fn deterministic_under_seed() {
        let spec: Vec<(f64, i64, Option<u64>)> = (0..12)
            .map(|i| (1.0 + i as f64, 2 + i as i64, None))
            .collect();
        let (candidates, assessments) = fixture(&spec);
        let input = SelectionInput {
            candidates: &candidates,
            assessments: &assessments,
            memory_budget_bytes: Some(30),
            scenario_base_costs: None,
        };
        let a = GeneticSelector::default().select(&input).unwrap();
        let b = GeneticSelector::default().select(&input).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_and_all_negative_inputs() {
        let (candidates, assessments) = fixture(&[]);
        let input = SelectionInput {
            candidates: &candidates,
            assessments: &assessments,
            memory_budget_bytes: None,
            scenario_base_costs: None,
        };
        assert!(GeneticSelector::default()
            .select(&input)
            .unwrap()
            .is_empty());

        let (candidates, assessments) = fixture(&[(-1.0, 5, None), (-2.0, 5, None)]);
        let input = SelectionInput {
            candidates: &candidates,
            assessments: &assessments,
            memory_budget_bytes: None,
            scenario_base_costs: None,
        };
        assert!(GeneticSelector::default()
            .select(&input)
            .unwrap()
            .is_empty());
    }
}
