package repro.tables

import scala.collection.immutable.ArraySeq

import org.apache.spark.sql.functions.col
import org.scalacheck.{Gen, Prop, Test => Check}
import org.scalacheck.Prop.propBoolean
import org.scalacheck.rng.Seed
import org.scalacheck.util.Pretty

import repro.SparkSpec
import repro.core.{MetricDiagram, MetricsEngine, PairMetrics, Profiling, ScoredMatch}
import repro.emdata.{DatasetSpecs, EmGen}
import repro.graph.ConnectedComponents
import repro.matching.{ExperimentGen, ReferenceSimilarity}

/** Unit-level checks of the table harnesses (the full-size runs live in the
  * bench project). Small workloads keep this fast.
  */
class TablesSpec extends SparkSpec {

  test("Table1 workloads carry the paper's record and match counts") {
    val byName = Table1.workloads.map(w => w.dataset -> w).toMap
    assert(byName("Altosight X4").records == 835 && byName("Altosight X4").matchedPairs == 4005)
    assert(byName("HPI Cora").records == 1879 && byName("HPI Cora").matchedPairs == 5067)
    assert(byName("FreeDB CDs").records == 9763 && byName("FreeDB CDs").matchedPairs == 147)
    assert(byName("Songs 100k").records == 100000 && byName("Songs 100k").matchedPairs == 45801)
    assert(byName("Magellan Songs").records == 1000000 && byName("Magellan Songs").matchedPairs == 144349)
  }

  test("Table1.build produces a feasible workload at each paper size") {
    Table1.workloads.take(3).foreach { w =>
      val (gold, matches) = Table1.build(w)
      assert(gold.length == w.records)
      assert(matches.size == w.matchedPairs)
    }
  }

  test("Table1.run validates custom against naive and reports positive timings") {
    val w = Table1.Workload("mini", 500, 300, 4, seed = 9)
    val r = Table1.run(w, reps = 1)
    assert(r.customMs > 0 && r.naiveMs > 0)
    assert(r.speedup > 0)
  }

  test("Table1.format renders one row per result") {
    val rows = Seq(Table1.Result("d", 10, 5, Table1.Timing(IndexedSeq(1.0)), Table1.Timing(IndexedSeq(10.0))))
    val out = Table1.format(rows)
    assert(out.linesIterator.size == 2)
    assert(out.contains("10.0x") || out.contains("10,0x"))
  }

  test("Table1.Timing gives the best rep and quartiles interpolated between ranks") {
    val t = Table1.Timing(IndexedSeq(5.0, 1.0, 4.0, 2.0, 3.0))
    assert(t.best == 1.0)
    assert(Seq(0.0, 0.25, 0.5, 0.75, 1.0).map(t.quantile) == Seq(1.0, 2.0, 3.0, 4.0, 5.0))
    assert(Table1.Timing(IndexedSeq(2.0, 4.0)).quantile(0.25) == 2.5)
    assert(Table1.Timing(IndexedSeq(7.0)).quantile(0.75) == 7.0)
  }

  test("Table2 paper rows pin the published profile") {
    assert(Table2.paperRows.map(_.dataset) == Seq("X2", "Z2", "X3", "Z3"))
    assert(Table2.paperRows.map(_.tc) == Seq(58653L, 18915L, 56616L, 35778L))
  }

  test("Table2.profileRow profiles a dataset in two Spark jobs: the records pass and the label count") {
    val d = EmGen.generate(spark, DatasetSpecs.tiny())
    val attrs = d.spec.attrs.map(_.name)
    val (row, jobs) = jobsOf(Table2.profileRow(d, attrs))
    assert(jobs == 2, s"profileRow started $jobs Spark jobs")
    val p = Profiling.profile(d.records, d.gold, attrs)
    assert((row.sp, row.tx, row.tc) == ((p.sparsity, p.textuality, p.tupleCount)))
    assert(math.abs(row.pr - d.spec.positiveRatio) < 1e-12, s"PR ${row.pr}")
  }

  test("Table3.tuneThreshold picks an f1-improving threshold") {
    val gold = ExperimentGen.uniformGold(200, 30, 3)
    val matches = ExperimentGen.scoredExperiment(gold, 120, 0.25, seed = 17).toArray
    val t = Table3.tuneThreshold(matches, 200, gold, samplePoints = 20)
    assert(t >= 0.0 && t <= 1.0)
    // the tuned threshold must beat both extremes
    def f1At(thr: Double): Double = {
      val admitted = matches.filter(_.score >= thr).toIndexedSeq
      val ms = MetricDiagram.custom(200, gold, admitted, 2)
      PairMetrics.f1(ms.last)
    }
    assert(f1At(t) >= f1At(0.99) - 1e-9)
    assert(f1At(t) >= f1At(0.0) - 1e-9)
  }

  test("Table3.tuneThreshold returns the boxed-sort threshold bit for bit (property)") {
    // The threshold as read from the matches sorted by `sortBy(-_.score)`,
    // whose implicit ordering is Double.TotalOrdering.
    def reference(scored: Array[ScoredMatch], n: Int, gold: Array[Int], samplePoints: Int): Double = {
      val s = math.min(samplePoints, scored.length + 1).max(2)
      val sorted = scored.sortBy(-_.score)(Ordering.Double.TotalOrdering)
      val matrices = MetricDiagram.custom(n, gold, ArraySeq.unsafeWrapArray(sorted), s)
      val boundaries = MetricDiagram.boundaries(sorted.length, s)
      val candidates = matrices.zipWithIndex.filter { case (_, i) => boundaries(i) > 0 }
      val best = candidates.maxBy { case (m, _) => PairMetrics.f1(m) }._2
      sorted(boundaries(best) - 1).score
    }
    val prop = Prop.forAll(TablesSpec.tuneCase) { case TablesSpec.TuneCase(n, gold, scored, samplePoints) =>
      val got = Table3.tuneThreshold(scored, n, gold, samplePoints)
      val want = reference(scored, n, gold, samplePoints)
      (java.lang.Double.doubleToRawLongBits(got) == java.lang.Double.doubleToRawLongBits(want)) :|
        s"tuned $got, reference $want"
    }
    val result = Check.check(
      Check.Parameters.default.withMinSuccessfulTests(300).withInitialSeed(Seed(41L)), prop)
    assert(result.passed, Pretty.pretty(result))
  }

  test("Table3 solution families cover both weighting philosophies") {
    val x2 = Table3.solutions.filter(_.family == "X2")
    val x3 = Table3.solutions.filter(_.family == "X3")
    assert(x2.size == 3 && x3.size == 3)
    // X2 family weights the dense attributes over the name; X3 the reverse
    x2.foreach(s => assert(s.weights("description") > s.weights("name")))
    x3.foreach(s => assert(s.weights("name") > s.weights("description")))
  }

  test("Table3.scoreOf over familySims is the weighted mean of tokenJaccardKnown") {
    import spark.implicits._
    val nul = null.asInstanceOf[String]
    val rows = Seq(
      (0L, "alpha beta gamma", "fast cpu", "big ram", "hd screen", "long description here"),
      (1L, "alpha beta gamma", "fast cpu", "big ram", "hd screen", "long description here"),
      (2L, "alpha delta epsilon", "slow cpu", nul, "sd screen", "other text"),
      (3L, "alpha beta zeta", nul, nul, "hd screen", "long unknown words"),
      (4L, "delta epsilon", nul, nul, nul, nul),
    )
    val records = rows.toDF("id", "name", "cpu", "ram", "screen", "description")
    val byId = rows.map(r => r._1 -> Map("name" -> r._2, "cpu" -> r._3, "ram" -> r._4, "screen" -> r._5,
      "description" -> r._6)).toMap
    val vocab = Set("alpha", "beta", "gamma", "delta", "epsilon", "fast", "slow", "cpu",
      "big", "ram", "hd", "sd", "screen", "long", "description", "here", "other", "text")
    val sims = Table3.familySims(records, vocab)
    for (sol <- Table3.solutions) {
      val scored = sims.select($"a", $"b", Table3.scoreOf(sol).as("score")).as[(Long, Long, Double)].collect()
      assert(scored.length == 7, sol.name)
      scored.foreach { case (a, b, got) =>
        val active = Table3.attrs.filter(at => byId(a)(at) != null || byId(b)(at) != null)
        val num = active.map(at => sol.weights(at) * ReferenceSimilarity.tokenJaccardKnown(byId(a)(at), byId(b)(at), vocab)).sum
        val den = active.map(sol.weights).sum
        val want = if (den > 0) num / den else 0.0
        assert(math.abs(got - want) < 1e-12, s"${sol.name} ($a, $b): got $got want $want")
      }
    }
  }

  test("Table3.scoredMatches collects a family's scores in one Spark job, as its solutions' own selects (property)") {
    for (seed <- Seq(5L, 6L, 7L)) {
      val d = EmGen.generate(spark, DatasetSpecs.tiny(n = 300, seed = seed))
      for ((fam, vocab) <- TablesSpec.vocabs(d.spec.pool)) {
        val table = Table3.familySims(d.records, vocab)
        val sols = Table3.solutions.filter(_.family == fam)
        val (got, jobs) = jobsOf(Table3.scoredMatches(table, sols))
        assert(jobs == 1, s"seed $seed, $fam: $jobs Spark jobs")
        assert(got.size == sols.size)
        for ((sol, scored) <- sols.zip(got)) {
          val want = table.select(col("a"), col("b"), Table3.scoreOf(sol)).collect()
          assert(scored.length == want.length, s"seed $seed, ${sol.name}: ${scored.length} vs ${want.length} rows")
          assert(want.nonEmpty, s"seed $seed, ${sol.name}: no candidates")
          scored.zip(want).zipWithIndex.foreach { case ((m, r), i) =>
            val same = m.a.toLong == r.getLong(0) && m.b.toLong == r.getLong(1) &&
              java.lang.Double.doubleToRawLongBits(m.score) == java.lang.Double.doubleToRawLongBits(r.getDouble(2))
            assert(same, s"seed $seed, ${sol.name}, row $i: got $m, select gave $r")
          }
        }
      }
    }
  }

  test("Table3 evaluates a cell on the driver to the Spark closure's matrix, in one Spark job") {
    val d = EmGen.generate(spark, DatasetSpecs.tiny(n = 300, seed = 5))
    d.records.cache().count()
    val n = d.spec.nRecords
    for ((fam, vocab) <- TablesSpec.vocabs(d.spec.pool)) {
      val table = Table3.familySims(d.records, vocab)
      val sols = Table3.solutions.filter(_.family == fam)
      // The family's one collect is the cells' only Spark job.
      val (collected, collectJobs) = jobsOf(Table3.scoredMatches(table, sols))
      assert(collectJobs == 1, s"$fam: the collect started $collectJobs Spark jobs")
      for ((sol, scored) <- sols.zip(collected)) {
        val tuned = Table3.tuneThreshold(scored, n, d.goldArray)
        // The positive score shared by the most candidates.
        val ties = scored.groupBy(_.score).collect { case (sc, g) if sc > 0 && g.length >= 2 => (g.length, sc) }
        assert(ties.nonEmpty, s"${sol.name}: no tied positive scores among ${scored.length} candidates")
        for (t <- Seq(tuned, ties.max._2)) {
          val (driver, jobs) = jobsOf(Table3.evaluate(n, d.goldArray, scored, t))
          assert(jobs == 0, s"${sol.name} at $t: the cell started $jobs Spark jobs")
          val edges = table.filter(Table3.scoreOf(sol) >= t).select(col("a").as("src"), col("b").as("dst"))
          val reference = MetricsEngine.confusionMatrix(ConnectedComponents.closure(d.records, edges), d.gold, n.toLong)
          assert(driver == reference, s"${sol.name} at $t: driver $driver, Spark $reference")
        }
      }
    }
    d.records.unpersist()
  }

  test("Table3 paper cells cover all 8 family × dataset combinations") {
    assert(Table3.paper.keySet ==
      (for (f <- Set("X2", "X3"); d <- Set("X2", "Z2", "X3", "Z3")) yield (f, d)))
  }
}

object TablesSpec {

  /** Family vocabularies over a tiny dataset's token pool: X2 knows every
    * token, X3 every other one.
    */
  def vocabs(pool: IndexedSeq[String]): Seq[(String, Set[String])] =
    Seq("X2" -> pool.toSet, "X3" -> pool.indices.collect { case i if i % 2 == 0 => pool(i) }.toSet)

  final case class TuneCase(n: Int, gold: Array[Int], scored: Array[ScoredMatch], samplePoints: Int)

  /** Few records and few distinct scores, so ties and duplicate pairs are
    * the rule; +0.0 and -0.0 both occur; a single match is common; the
    * sample count ranges from 2 to well above the number of matches.
    */
  val tuneCase: Gen[TuneCase] = for {
    n <- Gen.choose(2, 12)
    gold <- Gen.listOfN(n, Gen.choose(0, 3))
    m <- Gen.frequency(1 -> Gen.const(1), 4 -> Gen.choose(1, 40))
    pairs <- Gen.listOfN(m, Gen.pick(2, 0 until n))
    scores <- Gen.listOfN(m, Gen.oneOf(0.0, -0.0, 0.25, 0.5, 0.5, 0.75, 1.0))
    samplePoints <- Gen.frequency(3 -> Gen.choose(2, 60), 1 -> Gen.const(2001))
  } yield TuneCase(n, gold.toArray,
    pairs.zip(scores).map { case (p, sc) => ScoredMatch(p(0), p(1), sc) }.toArray, samplePoints)
}
