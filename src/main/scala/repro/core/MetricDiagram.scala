package repro.core

import repro.core.Tasks.inTasks
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

  /** The most bits per radix digit of [[segments]]: 2,048 buckets per
    * chunk. In one JVM on a 4-vCPU host (JDK 17), 16-bit digits were slower
    * than 11-bit ones on the benchmark's 1.47M tied matches of `sweep-tied`
    * and 144,349 matches of `diagram-1m`: scattering to 65,536 buckets from
    * two arrays does not fit the cache.
    */
  private final val MaxDigitBits = 11

  /** Bits of a digit over `size` keys: about one bucket per key, so that a
    * small range does not lay out more buckets than it has keys.
    */
  private def digitBits(size: Int): Int =
    math.min(MaxDigitBits, 32 - Integer.numberOfLeadingZeros(size))

  /** The most matches in a bucket that [[Partition.split]] sorts by
    * insertion rather than splits again: below this, allocating and laying
    * out another level of buckets costs more than the sort.
    */
  private final val SortRange = 32

  /** The fewest matches worth a chunk of their own: [[sweep]] reads and
    * scatters a range of `m` matches in `min(cores, ceil(m / ChunkMatches))`
    * chunks, so under 65,536 matches in one, on the calling thread.
    */
  private final val ChunkMatches = 65536

  private def coreChunks(m: Int): Int = {
    val cores = Runtime.getRuntime.availableProcessors
    math.max(1, math.min(cores, ((m + ChunkMatches - 1L) / ChunkMatches).toInt))
  }

  /** The start of each of `chunks` contiguous ranges of `[from, until)`, and
    * `until` last.
    */
  private def chunkStarts(from: Int, until: Int, chunks: Int): Array[Int] =
    Array.tabulate(chunks + 1)(t => from + (t.toLong * (until - from) / chunks).toInt)

  /** The sort key of `score`: the bits of `-score` with every bit but the
    * sign flipped when the sign is set, so that comparing keys as signed
    * `Long`s agrees with `java.lang.Double.compare` on `-score`. That is the
    * order `sortBy(-_.score)` uses: `+0.0` comes before `-0.0`.
    */
  private def scoreKey(score: Double): Long = {
    val bits = java.lang.Double.doubleToRawLongBits(-score)
    bits ^ ((bits >> 63) & Long.MaxValue)
  }

  /** The score whose key [[scoreKey]] made `key`, bit for bit. */
  private[core] def keyScore(key: Long): Double =
    -java.lang.Double.longBitsToDouble(key ^ ((key >> 63) & Long.MaxValue))

  /** The matches of `matches` cut into the `s - 1` segments of
    * [[boundaries]]: segment `i` (positions `[bounds(i - 1), bounds(i))`)
    * holds exactly the matches that `sortBy(-_.score)` puts there, in some
    * order, as record pairs packed `a << 32 | b` with their [[scoreKey]]s.
    * Returns the pairs, the keys and the bounds. Each match is checked as
    * `validate` checks it against dataset size `n`, and an invalid one
    * fails with the same message, naming the first offending index, before
    * `s` is checked, as in `naive`.
    *
    * `chunksOf(size)` gives the number of contiguous chunks a range of
    * `size` matches is read and scattered in, each by one task of the common
    * fork-join pool (one chunk runs on the calling thread). The chunks'
    * reads check the matches, pack their pairs and keys, and track each
    * chunk's smallest and largest key. Then [[Partition.split]] refines the
    * key span that is in use, by a stable MSD radix partition, only where a
    * cut falls inside a bucket. The segments do not depend on the chunks.
    */
  private[core] def segments(
      n: Int,
      matches: IndexedSeq[ScoredMatch],
      s: Int,
      chunksOf: Int => Int,
  ): (Array[Long], Array[Long], Array[Int]) = {
    val m = matches.length
    val chunks = chunksOf(m)
    require(chunks >= 1, s"need at least one chunk, got $chunks")
    val lo = chunkStarts(0, m, chunks)
    val keys = new Array[Long](m)
    val pairs = new Array[Long](m)
    val mins = Array.fill(chunks)(Long.MaxValue)
    val maxs = Array.fill(chunks)(Long.MinValue)
    val invalid = new Array[IllegalArgumentException](chunks)
    inTasks(chunks, parallel = true) { t =>
      var min = Long.MaxValue
      var max = Long.MinValue
      var j = lo(t)
      try {
        while (j < lo(t + 1)) {
          val x = matches(j)
          checkMatch(n, j, x)
          val key = scoreKey(x.score)
          keys(j) = key
          pairs(j) = (x.a.toLong << 32) | (x.b & 0xFFFFFFFFL)
          if (key < min) min = key
          if (key > max) max = key
          j += 1
        }
        mins(t) = min; maxs(t) = max
      } catch { case e: IllegalArgumentException => invalid(t) = e }
    }
    invalid.find(_ != null).foreach(e => throw e)
    val bounds = boundaries(m, s)
    val (min, max) = (mins.min, maxs.max)
    if (min == max || !cutInside(bounds, 0, m)) (pairs, keys, bounds)
    else {
      val part = new Partition(bounds, chunksOf, keys, pairs)
      part.split(0, m, min, max, fromRead = true)
      (part.pairs, part.keys, bounds)
    }
  }

  /** The index of the first cut of `bounds` above `pos`. */
  private def firstCutAbove(bounds: Array[Int], pos: Int): Int = {
    var lo = 0
    var hi = bounds.length
    while (lo < hi) { val mid = (lo + hi) >>> 1; if (bounds(mid) <= pos) lo = mid + 1 else hi = mid }
    lo
  }

  /** Whether a cut of `bounds` falls strictly inside `[from, until)`. */
  private def cutInside(bounds: Array[Int], from: Int, until: Int): Boolean = {
    val c = firstCutAbove(bounds, from)
    c < bounds.length && bounds(c) < until
  }

  /** The stable MSD radix partition behind [[segments]]. The read left the
    * matches in `readKeys`/`readPairs`; the partition leaves them in `keys`
    * and `pairs`, and uses the read arrays as scratch below the top level.
    */
  private final class Partition(
      bounds: Array[Int],
      chunksOf: Int => Int,
      readKeys: Array[Long],
      readPairs: Array[Long],
  ) {
    val keys = new Array[Long](readKeys.length)
    val pairs = new Array[Long](readPairs.length)

    /** Reorders positions `[from, until)`, whose keys lie in `[min, max]`,
      * so that every cut inside the range falls between two buckets, with
      * every key of the first below every key of the second, or inside a
      * run of one key.
      *
      * One pass per chunk counts each chunk's histogram of the top digit of
      * `key - min`, whose width [[digitBits]] derives from the range's
      * size, so only the span in use is bucketed. Each (bucket, chunk) gets
      * its start in bucket-major, chunk-minor order, so equal keys keep
      * their input order, and each chunk scatters its range there. Each
      * bucket that a cut falls strictly inside and that holds more than one
      * key is split again on the next digit, in parallel across buckets, or
      * sorted by insertion if it holds at most [[SortRange]] matches; the
      * others are never touched again. The top level (`fromRead`) reads the
      * read arrays and writes `keys`; every other level scatters `keys` to
      * the read arrays and copies its range back.
      */
    def split(from: Int, until: Int, min: Long, max: Long, fromRead: Boolean): Unit = {
      val srcKeys = if (fromRead) readKeys else keys
      val srcPairs = if (fromRead) readPairs else pairs
      val dstKeys = if (fromRead) keys else readKeys
      val dstPairs = if (fromRead) pairs else readPairs
      val chunks = chunksOf(until - from)
      val lo = chunkStarts(from, until, chunks)
      val span = max - min
      val shift = math.max(0, 64 - java.lang.Long.numberOfLeadingZeros(span) - digitBits(until - from))
      val buckets = (span >>> shift).toInt + 1
      val next = Array.fill(chunks)(new Array[Int](buckets))
      inTasks(chunks, parallel = true) { t =>
        val count = next(t)
        var j = lo(t)
        while (j < lo(t + 1)) { count(((srcKeys(j) - min) >>> shift).toInt) += 1; j += 1 }
      }
      val ends = new Array[Int](buckets)
      var sum = from
      var b = 0
      while (b < buckets) {
        var t = 0
        while (t < chunks) { val c = next(t)(b); next(t)(b) = sum; sum += c; t += 1 }
        ends(b) = sum
        b += 1
      }
      inTasks(chunks, parallel = true) { t =>
        val at = next(t)
        var j = lo(t)
        while (j < lo(t + 1)) {
          val key = srcKeys(j)
          val slot = ((key - min) >>> shift).toInt
          val pos = at(slot)
          dstKeys(pos) = key
          dstPairs(pos) = srcPairs(j)
          at(slot) = pos + 1
          j += 1
        }
      }
      if (!fromRead) inTasks(chunks, parallel = true) { t =>
        System.arraycopy(dstKeys, lo(t), keys, lo(t), lo(t + 1) - lo(t))
        System.arraycopy(dstPairs, lo(t), pairs, lo(t), lo(t + 1) - lo(t))
      }
      val cut = Array.newBuilder[Int]
      var c = firstCutAbove(bounds, from)
      b = 0
      while (c < bounds.length && bounds(c) < until) {
        while (ends(b) <= bounds(c)) b += 1
        val start = if (b == 0) from else ends(b - 1)
        if (bounds(c) == start) c += 1
        else {
          if (ends(b) - start > 1) cut += b
          while (c < bounds.length && bounds(c) < ends(b)) c += 1
        }
      }
      val refine = cut.result()
      inTasks(refine.length, parallel = chunks > 1) { i =>
        val b = refine(i)
        val start = if (b == 0) from else ends(b - 1)
        if (ends(b) - start <= SortRange) insertionSort(start, ends(b))
        else {
          var lo = Long.MaxValue
          var hi = Long.MinValue
          var j = start
          while (j < ends(b)) { val key = keys(j); if (key < lo) lo = key; if (key > hi) hi = key; j += 1 }
          if (lo != hi) split(start, ends(b), lo, hi, fromRead = false)
        }
      }
    }

    /** Sorts positions `[from, until)` of `keys` and `pairs` by key, stably. */
    private def insertionSort(from: Int, until: Int): Unit = {
      var i = from + 1
      while (i < until) {
        val key = keys(i)
        val pair = pairs(i)
        var j = i
        while (j > from && keys(j - 1) > key) { keys(j) = keys(j - 1); pairs(j) = pairs(j - 1); j -= 1 }
        keys(j) = key
        pairs(j) = pair
        i += 1
      }
    }
  }

  /** The paper's optimized algorithm (Appendix D, Algorithm 1): a single
    * pass over the matches, segment by segment in score order, through a
    * tracked-union union-find,
    * maintaining the experiment∩ground-truth intersection clustering
    * dynamically. Worst-case O(n + |Matches| * (s + log|Matches|)).
    *
    * A snapshot reads only pair counts, and a closure's pair counts do not
    * depend on the order its unions run in, so the pass needs each sample
    * point's matches, not their order: [[segments]] checks the matches and
    * cuts them into the `s - 1` segments by a stable radix partition (see
    * [[sweep]]), and the pass runs over each segment's packed pairs. Each
    * effective union is a `trackedUnion` batch of one: [[UnionFind.union]]
    * returns the survivor, the larger cluster, and
    * [[DynamicIntersection.fold]] folds the absorbed cluster into it at
    * once. Set-up is three arrays of size `n` and the gold pair count; the
    * pass allocates nothing per match, merge or cluster.
    */
  def custom(n: Int, gold: Array[Int], matches: IndexedSeq[ScoredMatch], s: Int): IndexedSeq[ConfusionMatrix] =
    sweep(n, gold, matches, s)._1

  /** [[custom]]'s matrices, each with its sample point's threshold: the
    * lowest score the point admits, or +∞ at a point that admits no match.
    * The threshold is the running maximum of the segments' keys, decoded
    * by [[keyScore]].
    *
    * The partition reads the matches once, in `min(cores, ceil(|M| /
    * 65,536))` chunks, and scatters them once by the top digit of the key
    * span in use. Only a bucket that a sample point's cut falls strictly
    * inside is scattered again, on the next digit, until the cut falls on a
    * bucket edge or inside a run of one key, a tie group (a bucket of at
    * most 32 matches is sorted by insertion instead); a bucket between two
    * cuts is never touched again. So the cost is one read and one
    * scatter of every match, plus at most `s - 2` buckets per further
    * digit, where a full sort scatters every match once per digit: the
    * `|M|·log|M|` term of the bound is paid only near the cuts. Every
    * scatter is stable, so a tie group that a cut splits holds its matches
    * in input order, and the cut admits exactly the prefix of the group that
    * `sortBy(-_.score)` admits: matrices and thresholds equal those of a
    * full sort.
    */
  private[repro] def sweep(
      n: Int,
      gold: Array[Int],
      matches: IndexedSeq[ScoredMatch],
      s: Int,
  ): (IndexedSeq[ConfusionMatrix], Array[Double]) = {
    checkGold(n, gold)
    val (pairs, keys, bounds) = segments(n, matches, s, coreChunks)
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
    val thresholds = new Array[Double](s)
    thresholds(0) = Double.PositiveInfinity
    out += snapshot()
    var maxKey = Long.MinValue
    var k = 0
    var i = 1
    while (i < s) {
      while (k < bounds(i)) {
        val key = keys(k)
        if (key > maxKey) maxKey = key
        val ra = exp.find((pairs(k) >>> 32).toInt); val rb = exp.find(pairs(k).toInt)
        if (ra != rb) {
          val survivor = exp.union(ra, rb)
          intersect.fold(if (survivor == ra) rb else ra, survivor)
        }
        k += 1
      }
      thresholds(i) = if (k == 0) Double.PositiveInfinity else keyScore(maxKey)
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
