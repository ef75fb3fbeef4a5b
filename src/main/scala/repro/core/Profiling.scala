package repro.core

import org.apache.spark.sql.{DataFrame, Encoders}
import org.apache.spark.sql.functions._

import repro.matching.Similarity

/** Dataset profiling metrics for benchmark-dataset selection
  * (Frost, Sections 3.1.3 and Appendix C / Table 2).
  */
object Profiling {

  /** Sparsity (SP): fraction of missing attribute values over all attribute
    * values of the given attributes (Primpeli & Bizer).
    */
  def sparsity(records: DataFrame, attrs: Seq[String]): Double = {
    require(attrs.nonEmpty, "need at least one attribute")
    recordStats(records, attrs).sparsity
  }

  /** Textuality (TX): average number of whitespace-separated words per
    * attribute value that has any (Primpeli & Bizer), words as
    * [[Similarity.wordCount]] counts them. Null, empty and whitespace-only
    * values have no words and are left out.
    */
  def textuality(records: DataFrame, attrs: Seq[String]): Double = {
    require(attrs.nonEmpty, "need at least one attribute")
    recordStats(records, attrs).textuality
  }

  /** Tuple count (TC). */
  def tupleCount(records: DataFrame): Long = recordStats(records, Nil).rows

  /** Positive ratio (PR): true duplicate pairs over all record pairs.
    * Computed from the gold clustering: Σ_c C(|c|,2) / C(n,2), n = Σ_c |c|.
    *
    * One Spark job of one stage: each task counts the size of each of its
    * clusters in a hash map (a null ID is one cluster), and the driver
    * merges the maps and sums. A shuffle, such as `reduceByKey`'s or a
    * DataFrame `groupBy`'s, would add a stage (under adaptive execution, a
    * job).
    */
  def positiveRatio(gold: DataFrame): Double = {
    val perTask = gold.select(col("cluster")).rdd.mapPartitions { rows =>
      val sizes = new java.util.HashMap[Any, Array[Long]]
      rows.foreach(r => sizes.computeIfAbsent(r.get(0), _ => new Array[Long](1))(0) += 1)
      Iterator(sizes)
    }.collect()
    val sizes = new java.util.HashMap[Any, Array[Long]]
    perTask.foreach(_.forEach((c, k) => sizes.merge(c, k, (a, b) => { a(0) += b(0); a })))
    var all = 0L; var pairs = 0L
    sizes.values.forEach { k => all += k(0); pairs += ConfusionMatrix.pairsOf(k(0)) }
    val total = ConfusionMatrix.pairsOf(all)
    if (total == 0) 0.0 else pairs.toDouble / total
  }

  /** What SP, TX and TC are read from: the row count, and over all
    * attribute values the null count, the word total and the number of
    * values with at least one word.
    */
  private[repro] final case class RecordStats(rows: Long, attrs: Int, nulls: Long, words: Long, worded: Long) {
    def sparsity: Double = { val cells = rows * attrs; if (cells == 0) 0.0 else nulls.toDouble / cells }
    def textuality: Double = if (worded == 0) 0.0 else words.toDouble / worded
  }

  /** One Spark job of one stage over the records: each task sums its rows
    * into the four counts, counting each value's words with
    * [[Similarity.wordCount]], and the driver sums the tasks. The sums run
    * over the RDD because a DataFrame `agg` would run its exchange as a job
    * of its own under adaptive execution.
    */
  private[repro] def recordStats(records: DataFrame, attrs: Seq[String]): RecordStats = {
    val values = records.select(attrs.map(a => col(a).cast("string")): _*)
    val k = attrs.size
    val perTask = values.rdd.mapPartitions { rows =>
      val t = new Array[Long](4) // rows, nulls, words, values with words
      rows.foreach { r =>
        t(0) += 1
        var i = 0
        while (i < k) {
          if (r.isNullAt(i)) t(1) += 1
          else {
            val w = Similarity.wordCount(r.getString(i))
            if (w > 0) { t(2) += w; t(3) += 1 }
          }
          i += 1
        }
      }
      Iterator(t)
    }.collect()
    def total(j: Int): Long = perTask.map(_(j)).sum
    RecordStats(total(0), k, total(1), total(2), total(3))
  }

  /** Vocabulary of a dataset: distinct tokens over the given attributes, as
    * [[Similarity.tokens]] splits and lower-cases them.
    */
  def vocabulary(records: DataFrame, attrs: Seq[String]): DataFrame = {
    require(attrs.nonEmpty, "need at least one attribute")
    val k = attrs.size
    records.select(attrs.map(a => col(a).cast("string")): _*)
      .flatMap(r => (0 until k).iterator.flatMap(i => Similarity.tokens(r.getString(i))))(Encoders.STRING)
      .toDF("token").distinct()
  }

  /** Vocabulary similarity (VS): Jaccard coefficient of the two datasets'
    * vocabularies (Section 3.1.3).
    *
    * One query: each side's tokens are tagged 1 or 2 and the tags summed
    * per token, so the union is the token count and the intersection the
    * tokens whose tags sum to 3.
    */
  def vocabularySimilarity(d1: DataFrame, attrs1: Seq[String], d2: DataFrame, attrs2: Seq[String]): Double = {
    val tagged = vocabulary(d1, attrs1).withColumn("side", lit(1))
      .union(vocabulary(d2, attrs2).withColumn("side", lit(2)))
    val counts = tagged.groupBy(col("token")).agg(sum(col("side")).as("sides"))
      .agg(count(lit(1)), count(when(col("sides") === 3, true))).collect()(0)
    val union = counts.getLong(0)
    val inter = counts.getLong(1)
    if (union == 0) 0.0 else inter.toDouble / union
  }

  /** Full profile row for a dataset (SP, TX, TC, PR) — Table 2 machinery. */
  final case class Profile(sparsity: Double, textuality: Double, tupleCount: Long, positiveRatio: Double)

  /** All four metrics from two Spark jobs of one stage each: one pass
    * over the records and one over the gold cluster sizes.
    */
  def profile(records: DataFrame, gold: DataFrame, attrs: Seq[String]): Profile = {
    require(attrs.nonEmpty, "need at least one attribute")
    val r = recordStats(records, attrs)
    Profile(r.sparsity, r.textuality, r.rows, positiveRatio(gold))
  }
}
