package repro.core

import repro.unionfind.{DynamicIntersection, UnionFind}

/** A match proposed by a matching solution: two record indices and the
  * similarity/confidence score the solution assigned to the pair.
  */
final case class ScoredMatch(a: Int, b: Int, score: Double)

/** Metric/metric diagrams (Frost, Section 4.5.1 and Appendix D).
  *
  * Both algorithms take the dataset size `n`, the ground-truth clustering
  * (cluster ID per record), the list of scored matches, and the number of
  * sample points `s`, and return `s` confusion matrices. Matrix `i` admits
  * the first `i * |Matches| / (s-1)` matches in descending score order
  * (ties in input order; matrix 0 admits none). With tied scores no
  * threshold need admit exactly that many: `sweep`'s threshold for point
  * `i`, the lowest score it admits, admits that score's whole tie group, so
  * `score >= threshold` can admit more matches than matrix `i` does.
  * Sampling by match *count* rather than by uniform threshold steps follows
  * the paper (Appendix D.1) and avoids empty diagram segments.
  *
  * The experiment at each threshold is the transitive closure of the
  * admitted matches, per Frost's requirement that experiments are
  * clusterings.
  */
object MetricDiagram {

  /** Boundary indices into the score-descending match list: sample point `i`
    * admits matches `[0, boundaries(i))`.
    */
  private[repro] def boundaries(nMatches: Int, s: Int): Array[Int] = {
    require(s >= 2, s"need at least 2 sample points, got $s")
    Array.tabulate(s)(i => ((i.toLong * nMatches) / (s - 1)).toInt)
  }

  /** Rejects input neither algorithm can give a meaningful diagram for: a
    * gold clustering of the wrong length, NaN scores, self-pairs and record
    * indices outside `[0, n)`. The message names the offending match.
    */
  private def validate(n: Int, gold: Array[Int], matches: IndexedSeq[ScoredMatch]): Unit = {
    checkGold(n, gold)
    var i = 0
    while (i < matches.length) { checkMatch(n, i, matches(i)); i += 1 }
  }

  private def checkGold(n: Int, gold: Array[Int]): Unit =
    require(gold.length == n, s"gold clustering covers ${gold.length} records, dataset has $n")

  private def checkMatch(n: Int, i: Int, m: ScoredMatch): Unit = {
    if (m.score.isNaN) throw new IllegalArgumentException(s"match $i has a NaN score: $m")
    if (m.a < 0 || m.a >= n || m.b < 0 || m.b >= n)
      throw new IllegalArgumentException(s"match $i has a record index outside [0, $n): $m")
    if (m.a == m.b) throw new IllegalArgumentException(s"match $i is a self-pair: $m")
  }

  private def sortedDesc(matches: IndexedSeq[ScoredMatch]): IndexedSeq[ScoredMatch] =
    matches.sortBy(-_.score)

  /** Bits per radix digit: six passes over a 64-bit key, the last over 9
    * bits. In one JVM on a 4-vCPU host (JDK 17), timing `custom` on the
    * benchmark's inputs (median of 30 interleaved warm reps), 11-bit and
    * 16-bit digits (four passes over 65,536 buckets) were even on the 1.47M
    * tied matches of `sweep-tied` in 4 chunks (76.5 and 76.6 ms), and
    * 11-bit ones were faster on `diagram-1m`'s 144,349 matches in 3 chunks
    * (31.2 against 35.7 ms) and on Table 1's inputs of 147 to 5,067
    * matches in one chunk (0.16–0.75 against 0.95–1.59 ms): every pass
    * lays out `2^DigitBits` buckets per chunk, which a small input does not
    * amortise. Sorting sweep-tied's matches in one chunk, 16-bit digits
    * were faster (100 against 109 ms).
    */
  private final val DigitBits = 11
  private final val Digits = (64 + DigitBits - 1) / DigitBits

  /** The fewest matches worth a chunk of their own: [[sweep]] sorts in
    * `min(cores, ceil(m / ChunkMatches))` chunks, so under 65,536 matches
    * in one, on the calling thread.
    */
  private final val ChunkMatches = 65536

  /** Runs `body` on each chunk `0 until chunks`, on the common fork-join
    * pool, or on the calling thread when there is only one chunk.
    */
  private def inChunks(chunks: Int)(body: Int => Unit): Unit =
    if (chunks == 1) body(0)
    else java.util.stream.IntStream.range(0, chunks).parallel().forEach(t => body(t))

  /** The record pairs of `matches` in exactly the order `sortedDesc` gives,
    * as two primitive arrays (`a(j)`, `b(j)`), and their sort keys, the
    * order-preserving bits of `-score` ([[keyScore]] decodes one). Each
    * match is checked as `validate` checks it against dataset size `n`,
    * and an invalid one fails with the same message, naming the first
    * offending index.
    *
    * A stable LSD radix sort over 11-bit digits of the order-preserving bits
    * of `-score`: flipping the sign bit of a non-negative double and all bits
    * of a negative one makes unsigned comparison of the bits agree with
    * `java.lang.Double.compare`, which is what `sortBy` uses (so `+0.0`
    * sorts before `-0.0`, and ties keep their input order).
    *
    * The input is split into `chunks` contiguous ranges, each handled by one
    * task of the common fork-join pool (one chunk runs on the calling
    * thread). Each chunk reads its boxed matches once: that read checks
    * them, packs their keys and pairs, and counts the chunk's histogram of
    * every digit. Digit passes in which all keys agree are skipped, and
    * input that is already in order is copied without a pass. A pass
    * counts each chunk's histogram of the current array (the read's
    * histograms serve the first pass, and every pass when there is one
    * chunk), gives each (bucket, chunk) its start in bucket-major,
    * chunk-minor order, so that equal digits keep their input order, and
    * scatters each chunk's range to those starts. The result does not
    * depend on `chunks`.
    */
  private[core] def sortedPairs(
      n: Int,
      matches: IndexedSeq[ScoredMatch],
      chunks: Int,
  ): (Array[Int], Array[Int], Array[Long]) = {
    require(chunks >= 1, s"need at least one chunk, got $chunks")
    val m = matches.length
    val lo = Array.tabulate(chunks + 1)(t => (t.toLong * m / chunks).toInt)
    var keys = new Array[Long](m)
    var pairs = new Array[Long](m)
    val radix = 1 << DigitBits
    val mask = radix - 1L
    val counts = Array.fill(chunks)(new Array[Int](Digits << DigitBits))
    val inOrder = new Array[Boolean](chunks)
    val invalid = new Array[IllegalArgumentException](chunks)
    val read = keys; val readPairs = pairs
    inChunks(chunks) { t =>
      val count = counts(t)
      val start = lo(t)
      val end = lo(t + 1)
      var ordered = true
      var j = start
      try {
        while (j < end) {
          val x = matches(j)
          checkMatch(n, j, x)
          val bits = java.lang.Double.doubleToRawLongBits(-x.score)
          val key = bits ^ ((bits >> 63) | Long.MinValue)
          read(j) = key
          readPairs(j) = (x.a.toLong << 32) | (x.b & 0xFFFFFFFFL)
          if (j > start && java.lang.Long.compareUnsigned(read(j - 1), key) > 0) ordered = false
          var d = 0
          while (d < Digits) { count((d << DigitBits) + ((key >>> (d * DigitBits)) & mask).toInt) += 1; d += 1 }
          j += 1
        }
        inOrder(t) = ordered
      } catch { case e: IllegalArgumentException => invalid(t) = e }
    }
    invalid.find(_ != null).foreach(e => throw e)
    val alreadySorted = inOrder.forall(identity) && (1 until chunks).forall { t =>
      lo(t) == 0 || lo(t) == m || java.lang.Long.compareUnsigned(read(lo(t) - 1), read(lo(t))) <= 0
    }
    if (!alreadySorted) {
      var keysTmp = new Array[Long](m)
      var pairsTmp = new Array[Long](m)
      var recount = false
      var d = 0
      while (d < Digits) {
        val shift = d * DigitBits
        val base = d << DigitBits
        val first = base + ((keys(0) >>> shift) & mask).toInt
        if (counts.map(_(first)).sum != m) {
          val from = keys; val fromPairs = pairs; val to = keysTmp; val toPairs = pairsTmp
          if (recount) inChunks(chunks) { t =>
            val count = counts(t)
            java.util.Arrays.fill(count, base, base + radix, 0)
            val end = lo(t + 1)
            var j = lo(t)
            while (j < end) { count(base + ((from(j) >>> shift) & mask).toInt) += 1; j += 1 }
          }
          recount = chunks > 1
          var sum = 0
          var bucket = base
          while (bucket < base + radix) {
            var t = 0
            while (t < chunks) { val c = counts(t)(bucket); counts(t)(bucket) = sum; sum += c; t += 1 }
            bucket += 1
          }
          inChunks(chunks) { t =>
            val start = counts(t)
            val end = lo(t + 1)
            var j = lo(t)
            while (j < end) {
              val slot = base + ((from(j) >>> shift) & mask).toInt
              val pos = start(slot)
              to(pos) = from(j)
              toPairs(pos) = fromPairs(j)
              start(slot) = pos + 1
              j += 1
            }
          }
          keys = to; keysTmp = from
          pairs = toPairs; pairsTmp = fromPairs
        }
        d += 1
      }
    }
    val a = new Array[Int](m)
    val b = new Array[Int](m)
    val out = pairs
    inChunks(chunks) { t =>
      val end = lo(t + 1)
      var j = lo(t)
      while (j < end) { a(j) = (out(j) >>> 32).toInt; b(j) = out(j).toInt; j += 1 }
    }
    (a, b, keys)
  }

  /** The score whose sort key `sortedPairs` made `key`, bit for bit. */
  private def keyScore(key: Long): Double =
    -java.lang.Double.longBitsToDouble(if (key < 0) key ^ Long.MinValue else ~key)

  /** The paper's optimized algorithm (Appendix D, Algorithm 1): a single
    * pass over the score-sorted matches through a tracked-union union-find,
    * maintaining the experiment∩ground-truth intersection clustering
    * dynamically. Worst-case O(n + |Matches| * (s + log|Matches|)).
    *
    * The matches are checked and ordered by a primitive radix sort
    * (`sortedPairs`) into the same order `naive`'s `sortBy` gives, and the
    * pass runs over the resulting `Int` arrays. Each effective union is a
    * `trackedUnion` batch of one: [[UnionFind.union]] returns the survivor,
    * the larger cluster, and [[DynamicIntersection.fold]] folds the absorbed
    * cluster into it at once. A snapshot reads only the pair counts, so
    * batching would not change a sample point's matrix. Set-up is three
    * arrays of size `n` and the gold pair count; the pass allocates nothing
    * per match, merge or cluster.
    */
  def custom(n: Int, gold: Array[Int], matches: IndexedSeq[ScoredMatch], s: Int): IndexedSeq[ConfusionMatrix] =
    sweep(n, gold, matches, s)._1

  /** [[custom]]'s matrices, each with its sample point's threshold: the
    * lowest score the point admits, read from the sorted keys, or +∞ at a
    * point that admits no match.
    */
  private[repro] def sweep(
      n: Int,
      gold: Array[Int],
      matches: IndexedSeq[ScoredMatch],
      s: Int,
  ): (IndexedSeq[ConfusionMatrix], Array[Double]) = {
    checkGold(n, gold)
    val cores = Runtime.getRuntime.availableProcessors
    val chunks = math.max(1, math.min(cores, ((matches.length + ChunkMatches - 1L) / ChunkMatches).toInt))
    val (a, b, keys) = sortedPairs(n, matches, chunks)
    val bounds = boundaries(a.length, s)
    val thresholds = bounds.map(k => if (k == 0) Double.PositiveInfinity else keyScore(keys(k - 1)))
    val exp = new UnionFind(n)
    val intersect = new DynamicIntersection(gold)
    val goldPairs = Contingency.clusterPairs(gold)
    val total = ConfusionMatrix.pairsOf(n.toLong)

    val out = IndexedSeq.newBuilder[ConfusionMatrix]
    def snapshot(): ConfusionMatrix = {
      val tp = intersect.pairCount
      val fp = exp.pairCount - tp
      val fn = goldPairs - tp
      ConfusionMatrix(tp, fp, fn, total - tp - fp - fn)
    }
    out += snapshot()
    var k = 0
    var i = 1
    while (i < s) {
      while (k < bounds(i)) {
        val ra = exp.find(a(k)); val rb = exp.find(b(k))
        if (ra != rb) {
          val survivor = exp.union(ra, rb)
          intersect.fold(if (survivor == ra) rb else ra, survivor)
        }
        k += 1
      }
      out += snapshot()
      i += 1
    }
    (out.result(), thresholds)
  }

  /** The paper's naïve comparison algorithm: for every sample point, rebuild
    * the experiment clustering and the intersection from scratch (linear in
    * n + admitted matches), i.e. O(s * (n + |Matches|)) total. This is the
    * "slightly more advanced" clustering-based naïve of Appendix D, the one
    * benchmarked in Table 1 (the pair-materializing naïve is quadratic and
    * infeasible at 10^5+ records).
    */
  def naive(n: Int, gold: Array[Int], matches: IndexedSeq[ScoredMatch], s: Int): IndexedSeq[ConfusionMatrix] = {
    validate(n, gold, matches)
    val sorted = sortedDesc(matches)
    val bounds = boundaries(sorted.length, s)
    (0 until s).map { i =>
      val uf = new UnionFind(n)
      var j = 0
      while (j < bounds(i)) { uf.union(sorted(j).a, sorted(j).b); j += 1 }
      ConfusionMatrix.fromClusterings(uf.toClustering, gold)
    }
  }

  /** Map a confusion-matrix sequence through two named metrics, producing
    * the diagram's (x, y) points (e.g. "recall" vs "precision" — Figure 3).
    */
  def diagram(matrices: Seq[ConfusionMatrix], xMetric: String, yMetric: String): Seq[(Double, Double)] = {
    val fx = PairMetrics.byName.getOrElse(xMetric, sys.error(s"unknown metric $xMetric"))
    val fy = PairMetrics.byName.getOrElse(yMetric, sys.error(s"unknown metric $yMetric"))
    matrices.map(m => (fx(m), fy(m)))
  }
}
