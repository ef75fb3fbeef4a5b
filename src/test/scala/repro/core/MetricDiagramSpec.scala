package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

import repro.core.SameDiagram.assertSame
import repro.matching.ExperimentGen

class MetricDiagramSpec extends AnyFunSuite {

  test("boundaries split matches evenly") {
    assert(MetricDiagram.boundaries(10, 3).toSeq == Seq(0, 5, 10))
    assert(MetricDiagram.boundaries(9, 4).toSeq == Seq(0, 3, 6, 9))
    assert(MetricDiagram.boundaries(0, 2).toSeq == Seq(0, 0))
  }

  test("boundaries handle non-divisible counts monotonically, ending at |Matches|") {
    val b = MetricDiagram.boundaries(7, 4)
    assert(b.head == 0 && b.last == 7)
    assert(b.sliding(2).forall { case Array(x, y) => x <= y })
  }

  test("at least two sample points required") {
    assertThrows[IllegalArgumentException](MetricDiagram.boundaries(5, 1))
  }

  test("first matrix is the empty experiment (threshold infinity)") {
    val gold = Array(0, 0, 1, 1)
    val matches = IndexedSeq(ScoredMatch(0, 1, 0.9), ScoredMatch(2, 3, 0.8))
    val ms = MetricDiagram.custom(4, gold, matches, 3)
    assert(ms.head == ConfusionMatrix(0, 0, 2, 4))
  }

  test("paper Figure 10: full example through the custom algorithm") {
    // dataset {a,b,c,d}, gold g0:{a,b} g1:{c,d}, matches {a,c},{b,d},{a,b}
    // in descending score order, s = 4 → one matrix per merged pair.
    val gold = Array(0, 0, 1, 1)
    val matches = IndexedSeq(
      ScoredMatch(0, 2, 0.9), // {a,c}
      ScoredMatch(1, 3, 0.8), // {b,d}
      ScoredMatch(0, 1, 0.7), // {a,b}
    )
    val ms = MetricDiagram.custom(4, gold, matches, 4)
    assert(ms == IndexedSeq(
      ConfusionMatrix(0, 0, 2, 4),
      ConfusionMatrix(0, 1, 2, 3),
      ConfusionMatrix(0, 2, 2, 2),
      ConfusionMatrix(2, 4, 0, 0),
    ))
  }

  test("naive agrees with the paper Figure 10 example") {
    val gold = Array(0, 0, 1, 1)
    val matches = IndexedSeq(
      ScoredMatch(0, 2, 0.9), ScoredMatch(1, 3, 0.8), ScoredMatch(0, 1, 0.7))
    assert(MetricDiagram.naive(4, gold, matches, 4) ==
      MetricDiagram.custom(4, gold, matches, 4))
  }

  test("perfect experiment reaches f1 = 1 at the last sample point") {
    val gold = Array(0, 0, 0, 1, 1, 2)
    val matches = IndexedSeq(
      ScoredMatch(0, 1, 0.99), ScoredMatch(1, 2, 0.98), ScoredMatch(3, 4, 0.97))
    val ms = MetricDiagram.custom(6, gold, matches, 4)
    assert(PairMetrics.f1(ms.last) == 1.0)
  }

  test("recall is monotonically non-decreasing along sample points") {
    val gold = ExperimentGen.uniformGold(50, 10, 4)
    val matches = ExperimentGen.scoredExperiment(gold, 40, 0.2, seed = 5)
    val ms = MetricDiagram.custom(50, gold, matches, 9)
    val recalls = ms.map(PairMetrics.recall)
    assert(recalls.sliding(2).forall { case Seq(a, b) => b >= a - 1e-12 })
  }

  test("total pairs constant across the sweep") {
    val gold = ExperimentGen.uniformGold(30, 5, 3)
    val matches = ExperimentGen.scoredExperiment(gold, 20, 0.3, seed = 6)
    val ms = MetricDiagram.custom(30, gold, matches, 5)
    assert(ms.map(_.totalPairs).distinct == IndexedSeq(ConfusionMatrix.pairsOf(30)))
  }

  test("duplicate matches and already-merged pairs are harmless") {
    val gold = Array(0, 0, 0)
    val matches = IndexedSeq(
      ScoredMatch(0, 1, 0.9), ScoredMatch(1, 0, 0.8), ScoredMatch(0, 2, 0.7), ScoredMatch(1, 2, 0.6))
    val c = MetricDiagram.custom(3, gold, matches, 5)
    assertSame("custom", c, "naive", MetricDiagram.naive(3, gold, matches, 5))
    assert(c.last == ConfusionMatrix(3, 0, 0, 0))
  }

  test("empty match list still yields s identical matrices") {
    val gold = Array(0, 0, 1)
    val ms = MetricDiagram.custom(3, gold, IndexedSeq.empty, 3)
    assert(ms.size == 3)
    assert(ms.distinct.size == 1)
  }

  test("gold length must match n") {
    assertThrows[IllegalArgumentException](
      MetricDiagram.custom(5, Array(0, 1), IndexedSeq.empty, 2))
  }

  test("both algorithms reject a NaN score, naming the match") {
    val matches = IndexedSeq(ScoredMatch(0, 1, 0.9), ScoredMatch(1, 2, Double.NaN))
    Seq(MetricDiagram.custom _, MetricDiagram.naive _).foreach { algo =>
      val e = intercept[IllegalArgumentException](algo(3, Array(0, 0, 1), matches, 2))
      assert(e.getMessage.contains("match 1 has a NaN score: ScoredMatch(1,2,NaN)"))
    }
  }

  test("both algorithms reject a self-pair, naming the match") {
    val matches = IndexedSeq(ScoredMatch(2, 2, 0.5))
    Seq(MetricDiagram.custom _, MetricDiagram.naive _).foreach { algo =>
      val e = intercept[IllegalArgumentException](algo(3, Array(0, 0, 1), matches, 2))
      assert(e.getMessage.contains("match 0 is a self-pair: ScoredMatch(2,2,0.5)"))
    }
  }

  test("both algorithms reject record indices outside [0, n), naming the match") {
    for (bad <- Seq(ScoredMatch(0, 3, 0.5), ScoredMatch(-1, 1, 0.5))) {
      val matches = IndexedSeq(ScoredMatch(0, 1, 0.9), ScoredMatch(1, 2, 0.8), bad)
      Seq(MetricDiagram.custom _, MetricDiagram.naive _).foreach { algo =>
        val e = intercept[IllegalArgumentException](algo(3, Array(0, 0, 1), matches, 2))
        assert(e.getMessage.contains(s"match 2 has a record index outside [0, 3): $bad"))
      }
    }
  }

  test("diagram maps matrices through named metrics") {
    val ms = Seq(ConfusionMatrix(0, 0, 2, 4), ConfusionMatrix(2, 0, 0, 4))
    val pts = MetricDiagram.diagram(ms, "recall", "precision")
    assert(pts == Seq((0.0, 0.0), (1.0, 1.0)))
  }

  test("diagram rejects unknown metric names") {
    assertThrows[RuntimeException](
      MetricDiagram.diagram(Seq(ConfusionMatrix(1, 1, 1, 1)), "nope", "precision"))
  }

  // The central equivalence property: custom (incremental, Appendix D) and
  // naive (rebuild per threshold) agree on every sample point, across random
  // golds, match lists, and sample counts.
  for (seed <- 1 to 12) {
    test(s"custom ≡ naive on random workloads (seed=$seed)") {
      val rnd = new Random(seed)
      val n = 20 + rnd.nextInt(60)
      val gold = Array.fill(n)(rnd.nextInt(1 + n / 4))
      val matches = IndexedSeq.fill(rnd.nextInt(80)) {
        val a = rnd.nextInt(n); var b = rnd.nextInt(n)
        if (a == b) b = (b + 1) % n
        ScoredMatch(a, b, rnd.nextDouble())
      }
      val s = 2 + rnd.nextInt(9)
      assertSame("custom", MetricDiagram.custom(n, gold, matches, s), "naive", MetricDiagram.naive(n, gold, matches, s))
    }
  }

  // Heavily tied scores (both zeros among them), duplicate and reversed
  // pairs, and input that is shuffled, presorted or reverse-sorted: custom's
  // radix order must be exactly naive's `sortBy(-score)`, which keeps ties
  // in input order and puts +0.0 before -0.0.
  for (seed <- 1 to 24) {
    test(s"custom ≡ naive on tied, duplicated, presorted and reversed input (seed=$seed)") {
      val rnd = new Random(seed)
      val n = 10 + rnd.nextInt(40)
      val gold = Array.fill(n)(rnd.nextInt(1 + n / 3))
      val levels = Array(0.0, -0.0, 0.5, -0.5, 1.0, 0.25, Double.NegativeInfinity)
      val nLevels = 1 + rnd.nextInt(levels.length)
      val distinct = IndexedSeq.fill(rnd.nextInt(60)) {
        val a = rnd.nextInt(n)
        ScoredMatch(a, (a + 1 + rnd.nextInt(n - 1)) % n, levels(rnd.nextInt(nLevels)))
      }
      val dups = distinct.filter(_ => rnd.nextBoolean()).map { m =>
        val again = if (rnd.nextBoolean()) m else m.copy(a = m.b, b = m.a)
        again.copy(score = levels(rnd.nextInt(nLevels)))
      }
      val shuffled = rnd.shuffle(distinct ++ dups)
      val matches = seed % 3 match {
        case 0 => shuffled
        case 1 => shuffled.sortBy(-_.score)
        case _ => shuffled.sortBy(_.score)
      }
      val s = if (rnd.nextBoolean()) (matches.length + 1).max(2) else 2 + rnd.nextInt(9)
      checkSweep(n, gold, matches, s)
    }
  }

  /** `segments` cuts the matches as a full sort does under every chunk
    * count and at several sample counts (with cuts inside tie groups, and
    * more segments than matches), custom equals naive at every sample point,
    * and each point's threshold is, bit for bit, the score of the last match
    * a full sort admits.
    */
  private def checkSweep(n: Int, gold: Array[Int], matches: IndexedSeq[ScoredMatch], s: Int): Unit = {
    val m = matches.length
    for (cuts <- Seq(s, 2, 3, 2 + m / 3, m + 1, m + 3) if cuts >= 2) checkSegments(n, matches, cuts)
    val sorted = matches.sortBy(-_.score)
    val (custom, thresholds) = MetricDiagram.sweep(n, gold, matches, s)
    assertSame("custom", custom, "naive", MetricDiagram.naive(n, gold, matches, s))
    val lowest = MetricDiagram.boundaries(matches.length, s).map { k =>
      if (k == 0) Double.PositiveInfinity else sorted(k - 1).score
    }
    assert(thresholds.map(java.lang.Double.doubleToRawLongBits).toSeq ==
      lowest.map(java.lang.Double.doubleToRawLongBits).toSeq)
  }

  private val chunkCounts = Seq(1, 2, 3, 4, 7)

  /** For each chunk count, [[checkSegmentsIn]] with that many chunks at
    * every level.
    */
  private def checkSegments(n: Int, matches: IndexedSeq[ScoredMatch], s: Int): Unit =
    chunkCounts.foreach(chunks => checkSegmentsIn(n, matches, s, _ => chunks))

  /** `segments` in `chunksOf(size)` chunks per range gives the bounds of
    * `boundaries`, and each segment holds exactly the matches (pairs and
    * scores, bit for bit) that `sortBy(-score)` puts there.
    */
  private def checkSegmentsIn(n: Int, matches: IndexedSeq[ScoredMatch], s: Int, chunksOf: Int => Int): Unit = {
    val sorted = matches.sortBy(-_.score)
    val chunks = chunksOf(matches.length)
    val (pairs, keys, bounds) = MetricDiagram.segments(n, matches, s, chunksOf)
    assert(bounds.toSeq == MetricDiagram.boundaries(matches.length, s).toSeq)
    assert(pairs.length == sorted.length && keys.length == sorted.length)
    def bits(x: Double) = java.lang.Double.doubleToRawLongBits(x)
    val got = pairs.indices.map(j => ((pairs(j) >>> 32).toInt, pairs(j).toInt, bits(MetricDiagram.keyScore(keys(j)))))
    val want = sorted.map(x => (x.a, x.b, bits(x.score)))
    val off = (1 until s).indexWhere { i =>
      got.slice(bounds(i - 1), bounds(i)).sorted != want.slice(bounds(i - 1), bounds(i)).sorted
    }
    if (off >= 0) {
      val (from, until) = (bounds(off), bounds(off + 1))
      fail(s"segments in $chunks chunks at s = $s differ from sortBy in segment ${off + 1} [$from, $until): " +
        s"${got.slice(from, until)} vs ${want.slice(from, until)}")
    }
  }

  test("segments are one set for every chunk count on 0, 1 and fewer matches than chunks") {
    val rnd = new Random(3)
    for (m <- 0 to 6) {
      val matches = IndexedSeq.fill(m)(ScoredMatch(rnd.nextInt(5), 5 + rnd.nextInt(5), rnd.nextInt(3) / 2.0))
      Seq(2, 3, m + 1, m + 3).filter(_ >= 2).foreach(s => checkSegments(10, matches, s))
    }
  }

  // Each chunk's range in order, but the ranges out of order against each
  // other, and globally sorted input.
  for (seed <- 1 to 6) {
    test(s"segments cut input that is in order within each chunk but not across chunks (seed=$seed)") {
      val rnd = new Random(seed)
      val n = 40
      val m = rnd.nextInt(200)
      val scores = IndexedSeq.fill(m)(rnd.nextInt(8) / 4.0 - 0.5)
      def pairs(sc: IndexedSeq[Double]): IndexedSeq[ScoredMatch] = sc.map { x =>
        val a = rnd.nextInt(n)
        ScoredMatch(a, (a + 1 + rnd.nextInt(n - 1)) % n, x)
      }
      val ascending = scores.sorted
      for (chunks <- chunkCounts) {
        val lo = (0 to chunks).map(t => (t.toLong * m / chunks).toInt)
        val descendingPerChunk = lo.sliding(2).flatMap(r => ascending.slice(r(0), r(1)).reverse).toIndexedSeq
        Seq(descendingPerChunk, ascending.reverse).foreach { sc =>
          val matches = pairs(sc)
          Seq(2, 5, m + 1).filter(_ >= 2).foreach(s => checkSegmentsIn(n, matches, s, _ => chunks))
        }
      }
    }
  }

  // Two invalid matches in different chunks: the error names the lower
  // index, word for word as naive's sequential check does, whichever chunk
  // fails first.
  test("segments name the first offending match across chunks") {
    val n = 10
    val invalid = Seq(ScoredMatch(3, 4, Double.NaN), ScoredMatch(3, n, 0.5), ScoredMatch(-1, 3, 0.5), ScoredMatch(6, 6, 0.5))
    val m = 28
    for (first <- invalid; second <- invalid; at <- Seq(m / 2, m - 1)) {
      val matches = IndexedSeq.tabulate(m) { j =>
        if (j == 1) first else if (j == at) second else ScoredMatch(j % n, (j + 1) % n, j / 7.0)
      }
      val expected = intercept[IllegalArgumentException](MetricDiagram.naive(n, Array.fill(n)(0), matches, 2)).getMessage
      assert(expected.startsWith("match 1 "))
      for (chunks <- chunkCounts) {
        val e = intercept[IllegalArgumentException](MetricDiagram.segments(n, matches, 2, _ => chunks))
        assert(e.getMessage == expected, s"$chunks chunks")
      }
    }
  }

  test("custom and naive report an invalid match before too few sample points") {
    val gold = Array(0, 0, 1)
    val bad = IndexedSeq(ScoredMatch(0, 1, 0.9), ScoredMatch(1, 1, 0.5))
    val valid = IndexedSeq(ScoredMatch(0, 1, 0.9))
    for (matches <- Seq(bad, valid); s <- Seq(1, 0)) {
      val messages = Seq(MetricDiagram.custom _, MetricDiagram.naive _).map { algo =>
        intercept[IllegalArgumentException](algo(3, gold, matches, s)).getMessage
      }
      assert(messages.distinct.size == 1, messages)
      assert(messages.head.contains(if (matches == bad) "match 1 is a self-pair" else "need at least 2 sample points"))
    }
  }

  // Table 3's tuning shape at a size where the partition reads and scatters
  // in several chunks and refines buckets large enough to be chunked again:
  // scores on a 1/40000 grid (heavy ties, most cuts inside a tie group) and
  // arbitrary doubles (nearly all distinct).
  for ((shape, score) <- Seq[(String, Random => Double)](
      "tied grid" -> (r => math.round(r.nextDouble() * 40000) / 40000.0),
      "distinct" -> (r => r.nextDouble()))) {
    test(s"segments equal a full sort's on 300,000 matches with $shape scores at s = 2001") {
      val rnd = new Random(41)
      val n = 50000
      val matches = IndexedSeq.fill(300000) {
        val a = rnd.nextInt(n)
        ScoredMatch(a, (a + 1 + rnd.nextInt(n - 1)) % n, score(rnd))
      }
      Seq(1, 3).foreach(chunks => checkSegmentsIn(n, matches, 2001, _ => chunks))
      checkSegmentsIn(n, matches, 2001, m => math.max(1, math.min(4, (m + 32767) / 32768)))
    }
  }

  // Aim-3 inputs at a size where clusters merge unevenly and the
  // intersection table grows: gold IDs at the Int extremes and sparse
  // negatives, chain- and star-shaped match sets, duplicates in both
  // orientations, and scores from -∞ to +∞ through ±0.0, subnormals and
  // arbitrary bit patterns, so that every radix digit varies.
  for (seed <- 1 to 8) {
    test(s"custom ≡ naive on extreme gold IDs and scores over chains and stars (seed=$seed)") {
      val rnd = new Random(seed)
      val n = 500 + rnd.nextInt(2500)
      val ids = Array(Int.MinValue, -1, 0, Int.MaxValue) ++
        Array.fill(n / 8)(if (rnd.nextBoolean()) -1 - rnd.nextInt(Int.MaxValue) else rnd.nextInt(Int.MaxValue))
      val gold = Array.fill(n)(ids(rnd.nextInt(ids.length)))
      val extremes = Array(
        Double.PositiveInfinity, Double.NegativeInfinity, 0.0, -0.0, Double.MaxValue, -Double.MaxValue,
        Double.MinPositiveValue, -Double.MinPositiveValue, java.lang.Double.MIN_NORMAL / 3, 1.0, 0.5)
      def score(): Double = rnd.nextInt(3) match {
        case 0 => extremes(rnd.nextInt(extremes.length))
        case 1 => rnd.nextDouble()
        case _ =>
          val x = java.lang.Double.longBitsToDouble(rnd.nextLong())
          if (x.isNaN) 0.25 else x
      }
      val distinct = IndexedSeq.newBuilder[ScoredMatch]
      (1 to 1 + rnd.nextInt(12)).foreach { _ =>
        val members = rnd.shuffle((0 until n).toIndexedSeq).take(2 + rnd.nextInt(n / 4))
        if (rnd.nextBoolean()) // a chain
          members.sliding(2).foreach(p => distinct += ScoredMatch(p(0), p(1), score()))
        else // a star
          members.tail.foreach(leaf => distinct += ScoredMatch(members.head, leaf, score()))
      }
      val once = distinct.result()
      val dups = once.filter(_ => rnd.nextInt(4) == 0).map { m =>
        val again = if (rnd.nextBoolean()) m else m.copy(a = m.b, b = m.a)
        again.copy(score = score())
      }
      val matches = rnd.shuffle(once ++ dups)
      checkSweep(n, gold, matches, 2 + rnd.nextInt(80))
    }
  }
}
