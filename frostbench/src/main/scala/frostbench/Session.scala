package frostbench

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions.col

import repro.core.{ConfusionMatrix, MetricsEngine, Profiling, ScoredMatch}
import repro.emdata.{DatasetSpecs, EmGen}
import repro.graph.ConnectedComponents
import repro.matching.Blocking
import repro.tables.Table3
import repro.unionfind.UnionFind

/** A Frost benchmarking session on Z2 with the X2 solution family. Setup
  * generates the dataset; each operation profiles it, scores the family's
  * candidates (blocking and similarity), and for each of the three
  * solutions collects the scores, tunes a threshold, closes the admitted
  * matches and computes the confusion matrix.
  *
  * Output checks: the profile's tuple count and positive ratio match the
  * spec; every Spark confusion matrix equals a driver `UnionFind` plus
  * `ConfusionMatrix.fromClusterings` over the same admitted edges; setups
  * repeat the same gold clustering.
  */
final class Session(spark: SparkSession) extends Workload {
  val name = "session-z2"
  private val vocab = DatasetSpecs.x2.pool.toSet
  private val solutions = Table3.solutions.filter(_.family == "X2")

  def run(run: Run): AnyRef = {
    val spec = DatasetSpecs.z2.copy(seed = DatasetSpecs.z2.seed + run.seed)
    // Warm-up: one untimed session on a small dataset of the same shape, so
    // the measured session does not pay for JIT and Spark code generation.
    val small = spec.copy(name = "Z2-warmup", nRecords = 1200, dupClusters = Seq((3, 100)))
    run.operation(0) {
      val warm = generate(run, small)
      session(run, 0, warm, small)
      warm.records.unpersist()
    }

    var data: EmGen.EmDataset = null
    val golds = run.setups(5) {
      if (data != null) data.records.unpersist()
      data = generate(run, spec)
      data.goldArray
    }
    golds.foreach(g => run.check(-1, "setups repeat the gold clustering", g.sameElements(golds.head)))

    run.loop(minOps = 1)(op => session(run, op, data, spec))
    run.samples.get("op_ms").foreach { case (_, ms) => ms.foreach(v => run.sample("session_s", "s", v / 1e3)) }
    data
  }

  private def generate(run: Run, spec: EmGen.EmSpec): EmGen.EmDataset = {
    val data = run.trace("emdata.generate")(EmGen.generate(spark, spec))
    val rows = data.records.cache().count()
    run.trace.count("emdata.records", rows.toDouble)
    data
  }

  /** One session; timed steps are sampled only for measured operations. */
  private def session(run: Run, op: Int, data: EmGen.EmDataset, spec: EmGen.EmSpec): Unit = {
    val trace = run.trace
    def sample(name: String, unit: String, v: Double): Unit = if (op > 0) run.sample(name, unit, v)
    val records = data.records
    val gold = data.goldArray
    val n = spec.nRecords

    val (profile, profileMs) = Run.time(trace("core.profile")(Profiling.profile(records, data.gold, Table3.attrs)))
    sample("profile_ms", "ms", profileMs)
    run.check(op, "profile tuple count", profile.tupleCount == n, s"${profile.tupleCount}")
    run.check(op, "profile positive ratio",
      profile.positiveRatio == spec.goldPairCount.toDouble / ConfusionMatrix.pairsOf(n.toLong), s"${profile.positiveRatio}")

    // Blocking is also inside familySims; run alone only when traced, to
    // split scoring into blocking and similarity.
    if (trace.enabled) trace("matching.blocking") {
      Blocking.tokenBlocking(records, Seq("name"), maxBlockSize = 60, knownVocab = Some(vocab)).count()
    }
    val ((sims, candidates), scoreMs) = Run.time(trace("tables.family_sims") {
      val df = Table3.familySims(records, vocab).cache()
      (df, df.count())
    })
    sample("score_s", "s", scoreMs / 1e3)
    trace.count("matching.candidates", candidates.toDouble)

    var maxComponent = 0
    solutions.zipWithIndex.foreach { case (sol, k) =>
      val ((scored, threshold), tuneMs) = Run.time {
        val scored = trace("tables.collect") {
          sims.select(col("a").cast("int"), col("b").cast("int"), Table3.scoreOf(sol).as("score"))
            .collect()
            .map(r => ScoredMatch(r.getInt(0), r.getInt(1), r.getDouble(2)))
        }
        (scored, trace("tables.tune")(Table3.tuneThreshold(scored, n, gold)))
      }
      sample("tune_ms", "ms", tuneMs)
      trace.count("tables.collected_rows", scored.length.toDouble)
      if (k == 0) trace.count("matching.candidate_true_ratio", scored.count(m => gold(m.a) == gold(m.b)).toDouble / scored.length)

      val (cm, evalMs) = Run.time {
        val edges = sims.select(col("a"), col("b"), Table3.scoreOf(sol).as("score"))
          .filter(col("score") >= threshold)
          .select(col("a").as("src"), col("b").as("dst"))
        val jobs0 = jobsSoFar(run)
        val clustering = trace("graph.closure")(ConnectedComponents.closure(records, edges))
        trace.count("graph.spark_jobs", (jobsSoFar(run) - jobs0).toDouble)
        trace("core.confusion_matrix")(MetricsEngine.confusionMatrix(clustering, data.gold, n.toLong))
      }
      sample("evaluate_ms", "ms", evalMs)

      val admitted = scored.filter(_.score >= threshold)
      val uf = new UnionFind(n)
      admitted.foreach(m => uf.union(m.a, m.b))
      val expected = ConfusionMatrix.fromClusterings(uf.toClustering, gold)
      run.check(op, s"${sol.name}: Spark matrix equals driver closure", cm == expected, s"spark $cm driver $expected")
      trace.count("graph.edges_in", admitted.length.toDouble)
      if (trace.enabled) maxComponent = math.max(maxComponent, (0 until n).map(uf.size).max)
    }
    trace.count("graph.max_component", maxComponent.toDouble)
    sims.unpersist()
  }

  /** Spark jobs started so far; only counted when traced. */
  private def jobsSoFar(run: Run): Long =
    if (run.trace.enabled) run.spark.fold(0L)(_._1.snapshot().jobs) else 0L
}
