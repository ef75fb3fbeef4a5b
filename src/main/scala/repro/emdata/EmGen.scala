package repro.emdata

import scala.collection.immutable.ArraySeq
import scala.collection.mutable
import scala.util.Random

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.catalyst.expressions.GenericRow
import org.apache.spark.sql.types._

import repro.core.{DriverFrames, Tasks}

/** Generator for dirty entity-matching datasets with gold standard.
  *
  * Stands in for the paper's benchmark datasets (SIGMOD contest notebooks,
  * Cora, CDs, Songs): every cluster is one real-world entity; duplicate
  * records are corrupted copies (nulled values, dropped/swapped tokens).
  * The generator controls exactly the statistics Frost profiles in Table 2:
  * tuple count, sparsity, textuality, positive ratio, and (via [[Vocab]]
  * pools) vocabulary similarity. Deterministic in `seed`.
  */
object EmGen {

  /** One attribute of the schema.
    *
    * @param meanWords target mean token count of non-null values (drives TX)
    * @param nullRate  probability a value is null (drives SP)
    * @param zipf      draw tokens Zipf-distributed (rare tokens exist → the
    *                  attribute is usable for token blocking); uniform
    *                  otherwise (full pool coverage → exact VS)
    */
  final case class AttrSpec(name: String, meanWords: Double, nullRate: Double, zipf: Boolean = false) {
    require(meanWords >= 1, s"meanWords must be >= 1 for $name")
    require(nullRate >= 0 && nullRate < 1, s"nullRate out of range for $name")
  }

  /** Full dataset spec. `dupClusters` lists (clusterSize, count) of the
    * duplicate clusters; remaining records are singletons.
    */
  final case class EmSpec(
      name: String,
      nRecords: Int,
      dupClusters: Seq[(Int, Int)],
      attrs: Seq[AttrSpec],
      pool: IndexedSeq[String],
      positiveRatio: Double,
      seed: Long,
  ) {
    require(attrs.nonEmpty, "need at least one attribute")
    require(pool.nonEmpty, "empty vocabulary pool")
    val dupRecords: Int = dupClusters.map { case (s, c) => s * c }.sum
    require(dupRecords <= nRecords, s"$name: duplicate records $dupRecords exceed $nRecords")
    require(positiveRatio > 0 && positiveRatio < 1, "positiveRatio must be in (0,1)")

    /** Number of true duplicate pairs implied by the cluster structure. */
    def goldPairCount: Long =
      dupClusters.map { case (s, c) => c.toLong * s * (s - 1) / 2 }.sum
  }

  /** Generated dataset: records, gold clustering (both as DataFrame and as
    * a record-indexed array), and a labeled pair sample with the spec's
    * positive ratio (the "development set" practitioners label).
    */
  final class EmDataset(
      val spec: EmSpec,
      val records: DataFrame,
      val gold: DataFrame,
      val goldArray: Array[Int],
      sample: => DataFrame,
  ) {

    /** Drawn on first use: only Table 2 reads it. It is the last draw from
      * the generator's `Random`, which nothing else holds, so the sample
      * does not depend on when it is drawn.
      */
    lazy val labeledPairs: DataFrame = sample
  }

  /** Per token of a duplicate's value: the chance it is dropped and, if
    * kept, the chance it is swapped for a random pool token.
    */
  private[emdata] val dropRate = 0.05
  private[emdata] val swapRate = 0.03

  /** Exponent of the Zipf draw of a `zipf` attribute's tokens. */
  private[emdata] val zipfAlpha = 1.1

  /** Zipf sampler over `0 until n` with exponent `alpha`. */
  private[emdata] final class ZipfSampler(n: Int, alpha: Double, rnd: Random) {
    private val cum = new Array[Double](n)
    locally {
      var acc = 0.0
      var i = 0
      while (i < n) { acc += 1.0 / math.pow(i + 1.0, alpha); cum(i) = acc; i += 1 }
      i = 0
      while (i < n) { cum(i) /= acc; i += 1 }
    }
    def next(): Int = {
      val u = rnd.nextDouble()
      var lo = 0; var hi = n - 1
      while (lo < hi) {
        val mid = (lo + hi) >>> 1
        if (cum(mid) < u) lo = mid + 1 else hi = mid
      }
      lo
    }
  }

  def generate(spark: SparkSession, spec: EmSpec): EmDataset = {
    val rnd = new Random(spec.seed)
    // Shuffle the pool so Zipf frequency ranks do not align with the pool's
    // construction order (global/common/exclusive token classes) — in real
    // data, shared domain words are not systematically the frequent ones.
    val pool = rnd.shuffle(spec.pool).toArray
    val zipf = new ZipfSampler(pool.length, zipfAlpha, rnd)
    val attrs = spec.attrs.toArray
    val width = attrs.length

    // A value is the pool indices of its tokens; the records frame joins
    // them into strings in the tasks.
    def drawValue(attr: AttrSpec): Array[Int] = {
      val k = math.max(1, math.round(attr.meanWords + rnd.nextGaussian() * attr.meanWords / 5.0).toInt)
      val tokens = new Array[Int](k)
      var j = 0
      while (j < k) {
        tokens(j) = if (attr.zipf) zipf.next() else rnd.nextInt(pool.length)
        j += 1
      }
      tokens
    }

    // `corrupt` gathers a copy's kept tokens here, then copies them out.
    var kept = new Array[Int](16)
    def corrupt(tokens: Array[Int], attr: AttrSpec): Array[Int] =
      if (rnd.nextDouble() < attr.nullRate) null
      else {
        if (kept.length < tokens.length) kept = new Array[Int](2 * tokens.length)
        var m = 0
        var j = 0
        while (j < tokens.length) {
          if (rnd.nextDouble() >= dropRate) {
            kept(m) = if (rnd.nextDouble() < swapRate) rnd.nextInt(pool.length) else tokens(j)
            m += 1
          }
          j += 1
        }
        if (m == 0) Array(tokens(rnd.nextInt(tokens.length))) else java.util.Arrays.copyOf(kept, m)
      }

    val gold = new Array[Int](spec.nRecords)
    // Record i's value of attribute a is values(i * width + a).
    val values = new Array[Array[Int]](spec.nRecords * width)
    val entity = new Array[Array[Int]](width)
    var recId = 0
    var clusterId = 0

    // One entity per cluster, corrupted copies; the remaining records are
    // clusters of one.
    (spec.dupClusters :+ ((1, spec.nRecords - spec.dupRecords))).foreach { case (size, count) =>
      var c = 0
      while (c < count) {
        var a = 0
        while (a < width) { entity(a) = drawValue(attrs(a)); a += 1 }
        var s = 0
        while (s < size) {
          gold(recId) = clusterId
          a = 0
          while (a < width) { values(recId * width + a) = corrupt(entity(a), attrs(a)); a += 1 }
          recId += 1; s += 1
        }
        clusterId += 1; c += 1
      }
    }

    val schema = StructType(
      StructField("id", LongType, nullable = false) +:
        StructField("cluster", LongType, nullable = false) +:
        spec.attrs.map(a => StructField(a.name, StringType, nullable = true))
    )
    val records = DriverFrames(spark, spec.nRecords, schema) { i =>
      val row = new Array[Any](2 + width)
      row(0) = i.toLong
      row(1) = gold(i).toLong
      var a = 0
      while (a < width) { row(2 + a) = joined(pool, values(i * width + a)); a += 1 }
      new GenericRow(row)
    }
    val goldDf = records.select("id", "cluster")

    new EmDataset(spec, records, goldDf, gold, labeledPairs(spark, spec, gold, rnd))
  }

  /** The tokens `pool(tokens(0))`, `pool(tokens(1))`, ... joined by single
    * spaces; null for null.
    */
  private def joined(pool: Array[String], tokens: Array[Int]): String =
    if (tokens == null) null
    else {
      var length = tokens.length - 1
      var j = 0
      while (j < tokens.length) { length += pool(tokens(j)).length; j += 1 }
      val sb = new java.lang.StringBuilder(length)
      j = 0
      while (j < tokens.length) {
        if (j > 0) sb.append(' ')
        sb.append(pool(tokens(j)))
        j += 1
      }
      sb.toString
    }

  /** The datasets of `specs` in their order, generated concurrently: each
    * draws only from its own `Random`, so each is the dataset `generate`
    * gives alone.
    */
  def generateAll(spark: SparkSession, specs: IndexedSeq[EmSpec]): IndexedSeq[EmDataset] = {
    val out = new Array[EmDataset](specs.length)
    Tasks.inTasks(specs.length, parallel = true)(i => out(i) = generate(spark, specs(i)))
    ArraySeq.unsafeWrapArray(out)
  }

  /** Labeled pair sample: all true duplicate pairs plus uniformly sampled
    * non-duplicate pairs so that positives / total = spec.positiveRatio.
    */
  private[emdata] def labeledPairs(spark: SparkSession, spec: EmSpec, gold: Array[Int], rnd: Random): DataFrame = {
    val positives = mutable.ArrayBuffer.empty[(Long, Long)]
    // Members per duplicate cluster are contiguous by construction.
    var base = 0
    spec.dupClusters.foreach { case (size, count) =>
      var c = 0
      while (c < count) {
        var i = 0
        while (i < size) {
          var j = i + 1
          while (j < size) { positives += (((base + i).toLong, (base + j).toLong)); j += 1 }
          i += 1
        }
        base += size; c += 1
      }
    }
    val nNeg = math.round(positives.size * (1 - spec.positiveRatio) / spec.positiveRatio).toInt
    val negatives = mutable.HashSet.empty[(Long, Long)]
    val n = spec.nRecords
    var attempts = 0
    while (negatives.size < nNeg && attempts < nNeg * 50 + 1000) {
      val a = rnd.nextInt(n); val b = rnd.nextInt(n)
      attempts += 1
      if (a != b && gold(a) != gold(b)) {
        negatives += ((math.min(a, b).toLong, math.max(a, b).toLong))
      }
    }
    require(negatives.size == nNeg, s"${spec.name}: could not sample $nNeg negative pairs")
    val pairs = positives ++ negatives
    val (a, b) = (pairs.map(_._1).toArray, pairs.map(_._2).toArray)
    val nPositive = positives.size
    val schema = StructType(Seq(
      StructField("a", LongType, nullable = false),
      StructField("b", LongType, nullable = false),
      StructField("label", BooleanType, nullable = false)))
    DriverFrames(spark, a.length, schema)(i => Row(a(i), b(i), i < nPositive))
  }
}
