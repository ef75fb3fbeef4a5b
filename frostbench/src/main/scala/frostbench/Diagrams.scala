package frostbench

import scala.util.Random

import repro.core.{ConfusionMatrix, MetricDiagram, ScoredMatch}
import repro.emdata.DatasetSpecs
import repro.matching.ExperimentGen
import repro.tables.Table1
import repro.unionfind.{DynamicIntersection, UnionFind}

/** The metric/metric diagram workloads: each operation is one
  * `MetricDiagram.custom` call on inputs built in setup.
  */
object Diagrams {

  final case class Input(n: Int, gold: Array[Int], matches: IndexedSeq[ScoredMatch], s: Int)

  /** Table 1's Magellan Songs shape: 1M records, 144,349 matches, s = 100.
    * Setup-heavy: intersection init and the gold pair count outweigh the
    * sort and the pass.
    */
  val diagram1m: Workload = new DiagramWorkload("diagram-1m", interiorChecks = 1) {
    def build(seed: Long): Input = {
      val w = Table1.workloads.find(_.dataset == "Magellan Songs").get
      val (gold, matches) = Table1.build(w.copy(seed = w.seed + seed))
      Input(w.records, gold, matches, Table1.samplePoints)
    }
  }

  /** Table 3's tuning shape: X3's records and duplicate clusters, 1.47M
    * scored candidates of which 12,000 are true, scores quantised to a
    * 1/40000 grid, s = 2001. Sort- and pass-heavy with heavy ties.
    */
  val sweepTied: Workload = new DiagramWorkload("sweep-tied", interiorChecks = 3) {
    val candidates = 1470000
    val grid = 40000.0
    def build(seed: Long): Input = {
      val spec = DatasetSpecs.x3
      val (size, clusters) = spec.dupClusters.head
      val gold = ExperimentGen.uniformGold(spec.nRecords, clusters, size)
      val truePairs = clusters * ConfusionMatrix.pairsOf(size.toLong)
      val fpRate = 1.0 - truePairs.toDouble / candidates
      val matches = ExperimentGen.scoredExperiment(gold, candidates, fpRate, spec.seed + seed)
        .map(m => m.copy(score = math.round(m.score * grid) / grid))
      Input(spec.nRecords, gold, matches, 2001)
    }
  }

  /** Sample-point boundaries, as `MetricDiagram` defines them. */
  def boundaries(nMatches: Int, s: Int): Array[Int] =
    Array.tabulate(s)(i => ((i.toLong * nMatches) / (s - 1)).toInt)

  /** Algorithm 1 replayed through the public `UnionFind` and
    * `DynamicIntersection` API, with a span around each layer call. Must
    * give exactly `MetricDiagram.custom`'s matrices.
    */
  def replay(in: Input, trace: Trace): IndexedSeq[ConfusionMatrix] = trace("core.diagram") {
    val sorted = trace("core.sort")(in.matches.sortBy(-_.score))
    val bounds = boundaries(sorted.length, in.s)
    val exp = trace("unionfind.uf_init")(new UnionFind(in.n))
    val intersect = trace("unionfind.intersection_init")(new DynamicIntersection(in.gold))
    val goldPairs = trace("core.gold_pairs") {
      val counts = new scala.collection.mutable.LongMap[Long]
      in.gold.foreach(c => counts(c.toLong) = counts.getOrElse(c.toLong, 0L) + 1)
      counts.values.map(ConfusionMatrix.pairsOf).sum
    }
    val total = ConfusionMatrix.pairsOf(in.n.toLong)
    def snapshot(): ConfusionMatrix = {
      val tp = intersect.pairCount
      val fp = exp.pairCount - tp
      val fn = goldPairs - tp
      ConfusionMatrix(tp, fp, fn, total - tp - fp - fn)
    }
    val out = IndexedSeq.newBuilder[ConfusionMatrix]
    out += snapshot()
    var unions = 0L
    var i = 1
    while (i < in.s) {
      val batch = sorted.view.slice(bounds(i - 1), bounds(i)).map(m => (m.a, m.b))
      val merges = trace("unionfind.tracked_union")(exp.trackedUnion(batch))
      trace("unionfind.intersection_update")(intersect.update(merges))
      merges.foreach(m => unions += m.sources.size - 1)
      out += snapshot()
      i += 1
    }
    trace.count("unionfind.matches_in", sorted.length.toDouble)
    trace.count("unionfind.effective_unions", unions.toDouble)
    trace.count("unionfind.effective_union_ratio", unions.toDouble / sorted.length)
    out.result()
  }
}

/** One diagram workload. Untraced, an operation is `MetricDiagram.custom`;
  * traced, it is the [[Diagrams.replay]], checked against `custom`.
  *
  * Output checks: `MetricDiagram.naive` at s = 2 gives the diagram's two
  * end points, and naive over a prefix of the sorted matches gives each of
  * `interiorChecks` seeded interior points. Every operation must equal a
  * reference `custom` diagram computed before the timed loop.
  */
abstract class DiagramWorkload(val name: String, interiorChecks: Int) extends Workload {
  import Diagrams._

  def build(seed: Long): Input

  def run(run: Run): AnyRef = {
    val trace = run.trace
    // Warm-up: one untimed setup and diagram, so JIT compilation is not timed.
    run.operation(0) {
      val in = build(run.seed)
      MetricDiagram.custom(in.n, in.gold, in.matches, in.s)
    }
    // Several setups give setup_s its median; the last one is measured.
    val in = run.setups(5)(trace("matching.experiment_gen")(build(run.seed))).last
    val reference = MetricDiagram.custom(in.n, in.gold, in.matches, in.s)

    run.loop(minOps = 3) { op =>
      val (out, ms) = Run.time {
        if (trace.enabled) replay(in, trace) else MetricDiagram.custom(in.n, in.gold, in.matches, in.s)
      }
      run.sample("diagram_ms", "ms", ms)
      run.check(op, "repeats the reference diagram", out == reference, firstDifference(out, reference))
    }
    // After the loop: the checks sort with their own comparator, which
    // would otherwise change the JIT's profile of the sort being timed.
    checkAgainstNaive(run, in, reference)
    in
  }

  private def checkAgainstNaive(run: Run, in: Input, reference: IndexedSeq[ConfusionMatrix]): Unit = {
    val ends = run.trace("core.naive_point")(MetricDiagram.naive(in.n, in.gold, in.matches, 2))
    run.check(1, "custom end points equal naive at s=2",
      ends == IndexedSeq(reference.head, reference.last), s"naive $ends")
    val sorted = in.matches.sortBy(-_.score)
    val bounds = boundaries(sorted.length, in.s)
    val rnd = new Random(run.seed)
    Seq.fill(interiorChecks)(1 + rnd.nextInt(in.s - 2)).foreach { i =>
      val point = MetricDiagram.naive(in.n, in.gold, sorted.take(bounds(i)), 2).last
      run.check(1, s"custom point $i equals naive", point == reference(i), s"naive $point custom ${reference(i)}")
    }
  }

  private def firstDifference(a: IndexedSeq[ConfusionMatrix], b: IndexedSeq[ConfusionMatrix]): String =
    if (a.length != b.length) s"lengths ${a.length} and ${b.length}"
    else a.indices.find(i => a(i) != b(i)).fold("")(i => s"point $i: ${a(i)} vs ${b(i)}")
}
