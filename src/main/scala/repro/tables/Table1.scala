package repro.tables

import repro.core.{ConfusionMatrix, MetricDiagram, ScoredMatch}
import repro.matching.ExperimentGen

/** Table 1: runtime of pair-based metric/metric diagrams — Snowman's custom
  * incremental algorithm vs the naïve per-threshold recomputation, 100
  * similarity thresholds per diagram.
  *
  * Workloads mirror the paper's five datasets in the two quantities the
  * algorithms depend on: record count and matched-pair count. Record
  * content is irrelevant to both algorithms (they consume record indices,
  * a gold clustering, and scored matches), so experiments are synthesized
  * by [[ExperimentGen]] at the paper's exact sizes.
  */
object Table1 {

  /** One workload: the paper's dataset sizes plus the gold cluster size used
    * to supply enough true pairs.
    */
  final case class Workload(dataset: String, records: Int, matchedPairs: Int, clusterSize: Int, seed: Long)

  /** The paper's five datasets (record and matched-pair counts from Table 1). */
  val workloads: Seq[Workload] = Seq(
    Workload("Altosight X4",   835,       4005,   11, seed = 201),
    Workload("HPI Cora",       1879,      5067,   10, seed = 202),
    Workload("FreeDB CDs",     9763,      147,    2,  seed = 203),
    Workload("Songs 100k",     100000,    45801,  3,  seed = 204),
    Workload("Magellan Songs", 1000000,   144349, 3,  seed = 205),
  )

  /** Fraction of synthesized matches that are false positives — scores of
    * true and false matches overlap so the threshold sweep is non-trivial.
    */
  val fpRate = 0.08

  /** Sample points per diagram, as in the paper ("100 different similarity
    * thresholds were calculated").
    */
  val samplePoints = 100

  /** One algorithm's timed reps on one workload, in ms. */
  final case class Timing(ms: IndexedSeq[Double]) {
    require(ms.nonEmpty, "a timing needs at least one rep")
    private val sorted = ms.sorted

    def best: Double = sorted.head

    /** The `q`-quantile of the reps, interpolated linearly between ranks. */
    def quantile(q: Double): Double = {
      val x = q * (sorted.length - 1)
      val i = x.toInt
      if (i + 1 < sorted.length) sorted(i) + (x - i) * (sorted(i + 1) - sorted(i)) else sorted(i)
    }
  }

  /** A workload's custom and naive timings. The gates read the best rep of
    * each; the median and quartiles show how far one rep can move.
    */
  final case class Result(
      dataset: String,
      records: Int,
      matchedPairs: Int,
      custom: Timing,
      naive: Timing,
  ) {
    def customMs: Double = custom.best
    def naiveMs: Double = naive.best
    def speedup: Double = naiveMs / customMs
  }

  /** Build a workload's gold clustering and scored experiment. */
  def build(w: Workload): (Array[Int], IndexedSeq[ScoredMatch]) = {
    val tpBudget = math.round(w.matchedPairs * (1 - fpRate)).toInt
    val gold = ExperimentGen.goldForPairBudget(w.records, tpBudget, w.clusterSize)
    val matches = ExperimentGen.scoredExperiment(gold, w.matchedPairs, fpRate, w.seed)
    (gold, matches)
  }

  private def timeMs[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = f
    ((a, (System.nanoTime() - t0) / 1e6))
  }

  /** Run one workload; asserts both algorithms produce identical confusion
    * matrices before trusting the timings. Custom runs `reps` times untimed,
    * then its `reps` timed runs and then naive's run back to back, so no
    * custom timing follows a naive run on the same heap.
    */
  def run(w: Workload, reps: Int): Result = {
    val (gold, matches) = build(w)
    def timed(f: => IndexedSeq[ConfusionMatrix]) = {
      val runs = (1 to reps).map(_ => timeMs(f))
      (runs.head._1, Timing(runs.map(_._2)))
    }
    (1 to reps).foreach(_ => MetricDiagram.custom(w.records, gold, matches, samplePoints))
    val (customOut, customTiming) = timed(MetricDiagram.custom(w.records, gold, matches, samplePoints))
    val (naiveOut, naiveTiming) = timed(MetricDiagram.naive(w.records, gold, matches, samplePoints))
    require(customOut == naiveOut, {
      val i = customOut.indices.find(i => customOut(i) != naiveOut.lift(i).orNull).getOrElse(customOut.length)
      s"${w.dataset}: custom and naive disagree first at sample point $i — custom ${customOut.lift(i)}, naive ${naiveOut.lift(i)}"
    })
    Result(w.dataset, w.records, w.matchedPairs, customTiming, naiveTiming)
  }

  /** Run all workloads after one untimed pass over all of them: a warm-up
    * on the smallest alone left custom's code uncompiled by the JIT when the
    * small workloads were timed.
    */
  def runAll(reps: Int): Seq[Result] = {
    workloads.foreach(run(_, reps = 1))
    workloads.map(run(_, reps))
  }

  def format(results: Seq[Result]): String = {
    val header = f"${"Dataset"}%-16s ${"Records"}%10s ${"Matches"}%10s ${"Custom"}%12s ${"Naive"}%12s ${"Speedup"}%8s" +
      f" ${"Custom p50"}%12s ${"Naive p50"}%12s"
    val rows = results.map { r =>
      f"${r.dataset}%-16s ${r.records}%10d ${r.matchedPairs}%10d ${r.customMs}%10.1fms ${r.naiveMs}%10.1fms ${r.speedup}%7.1fx" +
        f" ${r.custom.quantile(0.5)}%10.1fms ${r.naive.quantile(0.5)}%10.1fms"
    }
    (header +: rows).mkString("\n")
  }
}
